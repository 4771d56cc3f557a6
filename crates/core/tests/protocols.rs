//! End-to-end protocol tests: every object-based coherence model runs on
//! the simulated network and its recorded history must satisfy the
//! corresponding checker from `globe-coherence`.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test-only crate: clippy's in-tests exemptions cover #[test] bodies, not helpers"
)]

use std::time::Duration;

use globe_coherence::{check, ClientModel, ObjectModel, StoreClass};
use globe_core::{
    registers, BindOptions, CoherenceTransfer, GlobeRuntime, GlobeSim, ObjectSpec, OutdateReaction,
    Propagation, RegisterDoc, ReplicationPolicy, RuntimeConfig, TransferInitiative,
};
use globe_net::{LinkConfig, NodeId, Topology};

fn doc_factory() -> Box<dyn globe_core::Semantics> {
    Box::new(RegisterDoc::new())
}

/// A server plus `caches` cache nodes on a LAN, object created with
/// `policy`. Returns (sim, object, server node, cache nodes).
fn setup(
    policy: ReplicationPolicy,
    caches: usize,
    topology: Topology,
    seed: u64,
) -> (GlobeSim, globe_naming::ObjectId, NodeId, Vec<NodeId>) {
    let mut sim = GlobeSim::new(topology, seed);
    let server = sim.add_node();
    let cache_nodes: Vec<NodeId> = (0..caches).map(|_| sim.add_node()).collect();
    let mut placement = vec![(server, StoreClass::Permanent)];
    for &cache in &cache_nodes {
        placement.push((cache, StoreClass::ClientInitiated));
    }
    let object = ObjectSpec::new("/test/object")
        .policy(policy)
        .semantics_boxed(doc_factory)
        .stores(&placement)
        .create(&mut sim)
        .expect("create object");
    (sim, object, server, cache_nodes)
}

#[test]
fn pram_incremental_updates_respect_order_everywhere() {
    let policy = ReplicationPolicy::builder(ObjectModel::Pram)
        .immediate()
        .build()
        .unwrap();
    let (mut sim, object, server, caches) = setup(policy, 2, Topology::lan(), 1);
    let master = sim
        .bind(object, server, BindOptions::new().read_node(server))
        .unwrap();
    for i in 0..10 {
        sim.handle(master)
            .write(registers::put(
                &format!("page{}", i % 3),
                format!("v{i}").as_bytes(),
            ))
            .unwrap();
    }
    sim.run_for(Duration::from_secs(5));
    sim.finalize_digests();

    let history = sim.history();
    let history = history.lock();
    assert!(history.applies().len() >= 30, "3 stores x 10 writes");
    check::check_pram(&history).unwrap();
    check::check_read_integrity(&history).unwrap();
    check::check_eventual(&history).unwrap();
    drop(history);

    for &cache in &caches {
        assert_eq!(
            sim.store_digest(object, cache),
            sim.store_digest(object, server),
            "cache replica diverged"
        );
    }
}

#[test]
fn pram_buffers_out_of_order_updates_on_jittery_links() {
    // Non-FIFO, high-jitter links reorder updates; PRAM buffering must
    // still apply them in issue order at every store.
    let link = LinkConfig::new(Duration::from_millis(5))
        .with_jitter(Duration::from_millis(40))
        .with_fifo(false);
    let policy = ReplicationPolicy::builder(ObjectModel::Pram)
        .immediate()
        .build()
        .unwrap();
    let (mut sim, object, server, _caches) = setup(policy, 3, Topology::uniform(link), 99);
    let master = sim
        .bind(object, server, BindOptions::new().read_node(server))
        .unwrap();
    // Pipelined writes: issue all, then let the network churn.
    for i in 0..20 {
        sim.issue_write(&master, registers::put("news", format!("v{i}").as_bytes()))
            .unwrap();
    }
    sim.run_for(Duration::from_secs(10));
    sim.finalize_digests();
    let history = sim.history();
    let history = history.lock();
    check::check_pram(&history).unwrap();
    check::check_eventual(&history).unwrap();
}

#[test]
fn fifo_drops_overwritten_updates() {
    let policy = ReplicationPolicy::builder(ObjectModel::Fifo)
        .lazy(Duration::from_millis(500))
        .build()
        .unwrap();
    let (mut sim, object, server, caches) = setup(policy, 2, Topology::lan(), 2);
    let master = sim
        .bind(object, server, BindOptions::new().read_node(server))
        .unwrap();
    // Burst of overwrites within one lazy period: caches should see the
    // latest value; earlier ones may be skipped entirely.
    for i in 0..10 {
        sim.handle(master)
            .write(registers::put("front", format!("v{i}").as_bytes()))
            .unwrap();
    }
    sim.run_for(Duration::from_secs(3));
    sim.finalize_digests();
    let history = sim.history();
    let history = history.lock();
    check::check_fifo(&history).unwrap();
    drop(history);
    let reader = sim
        .bind(object, caches[0], BindOptions::new().read_node(caches[0]))
        .unwrap();
    let value = sim.handle(reader).read(registers::get("front")).unwrap();
    assert_eq!(&value[..], b"v9");
}

#[test]
fn causal_orders_article_before_reaction() {
    let (mut sim, object, server, caches) =
        setup(ReplicationPolicy::news_forum(), 2, Topology::wan(), 3);
    let author = sim
        .bind(object, server, BindOptions::new().read_node(server))
        .unwrap();
    let reactor = sim
        .bind(object, caches[0], BindOptions::new().read_node(caches[0]))
        .unwrap();

    sim.handle(author)
        .write(registers::put("article", b"globe ships"))
        .unwrap();
    // Reactor reads the article (possibly after propagation), then reacts.
    sim.run_for(Duration::from_secs(2));
    let got = sim.handle(reactor).read(registers::get("article")).unwrap();
    assert_eq!(&got[..], b"globe ships");
    sim.handle(reactor)
        .write(registers::put("reaction", b"nice!"))
        .unwrap();
    sim.run_for(Duration::from_secs(5));
    sim.finalize_digests();

    let history = sim.history();
    let history = history.lock();
    check::check_causal(&history).unwrap();
    check::check_eventual(&history).unwrap();
}

#[test]
fn causal_with_reordering_network() {
    let link = LinkConfig::new(Duration::from_millis(5))
        .with_jitter(Duration::from_millis(60))
        .with_fifo(false);
    let (mut sim, object, server, caches) = setup(
        ReplicationPolicy::builder(ObjectModel::Causal)
            .immediate()
            .build()
            .unwrap(),
        3,
        Topology::uniform(link),
        4,
    );
    let a = sim
        .bind(object, server, BindOptions::new().read_node(server))
        .unwrap();
    let b = sim
        .bind(object, caches[0], BindOptions::new().read_node(caches[0]))
        .unwrap();
    for round in 0..5 {
        sim.handle(a)
            .write(registers::put("thread", format!("msg{round}").as_bytes()))
            .unwrap();
        sim.run_for(Duration::from_millis(300));
        let _ = sim.handle(b).read(registers::get("thread")).unwrap();
        sim.handle(b)
            .write(registers::put("thread", format!("re{round}").as_bytes()))
            .unwrap();
        sim.run_for(Duration::from_millis(300));
    }
    sim.run_for(Duration::from_secs(10));
    sim.finalize_digests();
    let history = sim.history();
    let history = history.lock();
    check::check_causal(&history).unwrap();
    check::check_eventual(&history).unwrap();
}

#[test]
fn sequential_multi_writer_agrees_on_total_order() {
    let (mut sim, object, server, caches) =
        setup(ReplicationPolicy::whiteboard(), 3, Topology::lan(), 5);
    let alice = sim
        .bind(object, caches[0], BindOptions::new().read_node(caches[0]))
        .unwrap();
    let bob = sim
        .bind(object, caches[1], BindOptions::new().read_node(caches[1]))
        .unwrap();
    let _ = server;
    for i in 0..8 {
        sim.handle(alice)
            .write(registers::put("board", format!("a{i}").as_bytes()))
            .unwrap();
        sim.handle(bob)
            .write(registers::put("board", format!("b{i}").as_bytes()))
            .unwrap();
    }
    sim.run_for(Duration::from_secs(5));
    sim.finalize_digests();
    let history = sim.history();
    let history = history.lock();
    check::check_sequential(&history).unwrap();
    check::check_eventual(&history).unwrap();
}

#[test]
fn eventual_converges_despite_loss() {
    // 20% loss on every link; anti-entropy pulls must still converge all
    // replicas.
    let link = LinkConfig::new(Duration::from_millis(10)).with_loss(0.2);
    let policy = ReplicationPolicy::builder(ObjectModel::Eventual)
        .lazy(Duration::from_millis(400))
        .build()
        .unwrap();
    let (mut sim, object, server, caches) = setup(policy, 3, Topology::uniform(link), 6);
    let writer = sim
        .bind(object, server, BindOptions::new().read_node(server))
        .unwrap();
    // Async writes: some WriteReqs may be lost; only acked ones count.
    for i in 0..15 {
        sim.issue_write(
            &writer,
            registers::put(&format!("p{}", i % 4), format!("v{i}").as_bytes()),
        )
        .unwrap();
        sim.run_for(Duration::from_millis(50));
    }
    sim.run_for(Duration::from_secs(30));
    sim.finalize_digests();

    // All stores that hold replicas must agree with the server.
    let server_digest = sim.store_digest(object, server).unwrap();
    for &cache in &caches {
        assert_eq!(
            sim.store_digest(object, cache),
            Some(server_digest),
            "replica at {cache} diverged"
        );
    }
    let history = sim.history();
    let history = history.lock();
    check::check_read_integrity(&history).unwrap();
}

#[test]
fn read_your_writes_enforced_through_stale_cache() {
    // The paper's Fig. 3 scenario: master writes to the server, reads
    // from its cache. With a long lazy period the cache is stale, and the
    // RYW guard must force a demand-update.
    let policy = ReplicationPolicy::conference_page(); // lazy 2s push
    let (mut sim, object, server, caches) = setup(policy, 2, Topology::lan(), 7);
    let _ = server;
    let master = sim
        .bind(
            object,
            caches[0],
            BindOptions::new()
                .read_node(caches[0])
                .guard(ClientModel::ReadYourWrites),
        )
        .unwrap();
    sim.handle(master)
        .write(registers::put("program.html", b"v1"))
        .unwrap();
    // Read immediately: the cache cannot have been pushed to yet (2 s
    // period), so RYW must trigger a demand.
    let got = sim
        .handle(master)
        .read(registers::get("program.html"))
        .unwrap();
    assert_eq!(&got[..], b"v1", "read-your-writes violated");

    let history = sim.history();
    let history = history.lock();
    check::check_read_your_writes(&history, master.client).unwrap();
    // The demand-update path must have been exercised.
    drop(history);
    let metrics = sim.metrics();
    let metrics = metrics.lock();
    assert!(
        metrics.traffic.contains_key("DemandUpdate"),
        "expected a demand-update, traffic: {:?}",
        metrics.traffic.keys().collect::<Vec<_>>()
    );
}

#[test]
fn without_ryw_guard_stale_cache_is_visible() {
    // Control experiment: same setup, no guard — the stale read returns
    // the old value, which is exactly why the paper's master needs RYW.
    let policy = ReplicationPolicy::conference_page();
    let (mut sim, object, server, caches) = setup(policy, 2, Topology::lan(), 8);
    let _ = server;
    let master = sim
        .bind(object, caches[0], BindOptions::new().read_node(caches[0]))
        .unwrap();
    sim.handle(master)
        .write(registers::put("program.html", b"v1"))
        .unwrap();
    let got = sim
        .handle(master)
        .read(registers::get("program.html"))
        .unwrap();
    assert!(
        got.is_empty(),
        "expected stale (empty) read from unpushed cache, got {:?}",
        got
    );
    // After the lazy push the cache catches up.
    sim.run_for(Duration::from_secs(3));
    let got = sim
        .handle(master)
        .read(registers::get("program.html"))
        .unwrap();
    assert_eq!(&got[..], b"v1");
}

#[test]
fn monotonic_reads_survives_store_switch() {
    let policy = ReplicationPolicy::builder(ObjectModel::Pram)
        .lazy(Duration::from_secs(2))
        .build()
        .unwrap();
    let (mut sim, object, server, caches) = setup(policy, 2, Topology::lan(), 9);
    let master = sim
        .bind(object, server, BindOptions::new().read_node(server))
        .unwrap();
    let reader = sim
        .bind(
            object,
            caches[0],
            BindOptions::new()
                .read_node(caches[0])
                .guard(ClientModel::MonotonicReads),
        )
        .unwrap();
    sim.handle(master)
        .write(registers::put("page", b"v1"))
        .unwrap();
    sim.run_for(Duration::from_secs(3)); // cache 0 gets the push
    let first = sim.handle(reader).read(registers::get("page")).unwrap();
    assert_eq!(&first[..], b"v1");
    // Switch reads to cache 1, which may be staler. MR must not regress.
    sim.rebind_reads(&reader, caches[1]).unwrap();
    let second = sim.handle(reader).read(registers::get("page")).unwrap();
    assert_eq!(&second[..], b"v1", "monotonic reads regressed");
    let history = sim.history();
    let history = history.lock();
    check::check_monotonic_reads(&history, reader.client).unwrap();
}

#[test]
fn writes_follow_reads_orders_reaction_everywhere() {
    // WFR on top of *eventual* coherence: the weakest model plus the
    // client-causal guard still orders article before reaction at every
    // store.
    let policy = ReplicationPolicy::builder(ObjectModel::Eventual)
        .lazy(Duration::from_millis(300))
        .build()
        .unwrap();
    let (mut sim, object, server, caches) = setup(policy, 2, Topology::lan(), 10);
    let author = sim
        .bind(object, server, BindOptions::new().read_node(server))
        .unwrap();
    let reactor = sim
        .bind(
            object,
            caches[0],
            BindOptions::new()
                .read_node(caches[0])
                .guard(ClientModel::WritesFollowReads),
        )
        .unwrap();
    sim.handle(author)
        .write(registers::put("article", b"original"))
        .unwrap();
    sim.run_for(Duration::from_secs(1));
    let read = sim.handle(reactor).read(registers::get("article")).unwrap();
    assert_eq!(&read[..], b"original");
    sim.handle(reactor)
        .write(registers::put("reaction", b"reply"))
        .unwrap();
    sim.run_for(Duration::from_secs(5));
    sim.finalize_digests();
    let history = sim.history();
    let history = history.lock();
    check::check_writes_follow_reads(&history, reactor.client).unwrap();
    check::check_eventual(&history).unwrap();
}

#[test]
fn invalidation_mode_refetches_on_read() {
    let policy = ReplicationPolicy::builder(ObjectModel::Pram)
        .propagation(Propagation::Invalidate)
        .immediate()
        .object_outdate(OutdateReaction::Demand)
        .build()
        .unwrap();
    let (mut sim, object, server, caches) = setup(policy, 1, Topology::lan(), 11);
    let master = sim
        .bind(object, server, BindOptions::new().read_node(server))
        .unwrap();
    let reader = sim
        .bind(object, caches[0], BindOptions::new().read_node(caches[0]))
        .unwrap();
    sim.handle(master)
        .write(registers::put("page", b"v1"))
        .unwrap();
    sim.run_for(Duration::from_secs(1));
    let got = sim.handle(reader).read(registers::get("page")).unwrap();
    assert_eq!(&got[..], b"v1");
    let metrics = sim.metrics();
    let metrics = metrics.lock();
    assert!(metrics.traffic.contains_key("Invalidate"));
}

#[test]
fn notification_mode_with_wait_serves_stale() {
    let policy = ReplicationPolicy::builder(ObjectModel::Pram)
        .coherence_transfer(CoherenceTransfer::Notification)
        .immediate()
        .object_outdate(OutdateReaction::Wait)
        .build()
        .unwrap();
    let (mut sim, object, server, caches) = setup(policy, 1, Topology::lan(), 12);
    let master = sim
        .bind(object, server, BindOptions::new().read_node(server))
        .unwrap();
    let reader = sim
        .bind(object, caches[0], BindOptions::new().read_node(caches[0]))
        .unwrap();
    sim.handle(master)
        .write(registers::put("page", b"v1"))
        .unwrap();
    sim.run_for(Duration::from_secs(1));
    // Notification carries no data and wait never demands: stale read.
    let got = sim.handle(reader).read(registers::get("page")).unwrap();
    assert!(got.is_empty(), "notification+wait should leave cache stale");
    let metrics = sim.metrics();
    let metrics = metrics.lock();
    assert!(metrics.traffic.contains_key("Notify"));
    assert!(!metrics.traffic.contains_key("Update"));
}

#[test]
fn notification_mode_with_demand_fetches() {
    let policy = ReplicationPolicy::builder(ObjectModel::Pram)
        .coherence_transfer(CoherenceTransfer::Notification)
        .immediate()
        .object_outdate(OutdateReaction::Demand)
        .build()
        .unwrap();
    let (mut sim, object, server, caches) = setup(policy, 1, Topology::lan(), 13);
    let master = sim
        .bind(object, server, BindOptions::new().read_node(server))
        .unwrap();
    let reader = sim
        .bind(object, caches[0], BindOptions::new().read_node(caches[0]))
        .unwrap();
    sim.handle(master)
        .write(registers::put("page", b"v1"))
        .unwrap();
    sim.run_for(Duration::from_secs(1));
    let got = sim.handle(reader).read(registers::get("page")).unwrap();
    assert_eq!(&got[..], b"v1", "demand reaction should have fetched data");
}

#[test]
fn pull_initiative_polls_the_home_store() {
    let policy = ReplicationPolicy::builder(ObjectModel::Pram)
        .initiative(TransferInitiative::Pull)
        .period(Duration::from_millis(500))
        .build()
        .unwrap();
    let (mut sim, object, server, caches) = setup(policy, 1, Topology::lan(), 14);
    let master = sim
        .bind(object, server, BindOptions::new().read_node(server))
        .unwrap();
    let reader = sim
        .bind(object, caches[0], BindOptions::new().read_node(caches[0]))
        .unwrap();
    sim.handle(master)
        .write(registers::put("page", b"v1"))
        .unwrap();
    sim.run_for(Duration::from_secs(2)); // several poll rounds
    let got = sim.handle(reader).read(registers::get("page")).unwrap();
    assert_eq!(&got[..], b"v1");
    let metrics = sim.metrics();
    let metrics = metrics.lock();
    assert!(metrics.traffic.contains_key("DemandUpdate"));
    assert!(
        !metrics.traffic.contains_key("Update"),
        "push path should be idle under pull initiative"
    );
}

#[test]
fn full_coherence_transfer_ships_snapshots() {
    let policy = ReplicationPolicy::builder(ObjectModel::Fifo)
        .coherence_transfer(CoherenceTransfer::Full)
        .lazy(Duration::from_millis(500))
        .build()
        .unwrap();
    let (mut sim, object, server, caches) = setup(policy, 1, Topology::lan(), 15);
    let master = sim
        .bind(object, server, BindOptions::new().read_node(server))
        .unwrap();
    let reader = sim
        .bind(object, caches[0], BindOptions::new().read_node(caches[0]))
        .unwrap();
    for i in 0..3 {
        sim.handle(master)
            .write(registers::put("a", format!("v{i}").as_bytes()))
            .unwrap();
        sim.handle(master)
            .write(registers::put("b", format!("w{i}").as_bytes()))
            .unwrap();
    }
    sim.run_for(Duration::from_secs(2));
    let got = sim.handle(reader).read(registers::get("a")).unwrap();
    assert_eq!(&got[..], b"v2");
    let got = sim.handle(reader).read(registers::get("b")).unwrap();
    assert_eq!(&got[..], b"w2");
    let metrics = sim.metrics();
    let metrics = metrics.lock();
    assert!(metrics.traffic.contains_key("FullState"));
}

/// Pipelines eight writes into the sequencer of a home with three
/// permanent mirrors under `policy`. Returns the fan-out frames the run
/// put on the wire (per-write `Update`s plus the coalesced
/// `UpdateBatch` or `WriteBatch` of a lazy transfer or a group commit)
/// and every page as every store serves it afterwards.
fn pipelined_fan_out(policy: ReplicationPolicy, config: RuntimeConfig) -> (u64, Vec<Vec<u8>>) {
    let mut sim = GlobeSim::with_config(Topology::lan(), config);
    let stores: Vec<NodeId> = (0..4).map(|_| sim.add_node()).collect();
    let client = sim.add_node();
    let placement: Vec<_> = stores.iter().map(|&n| (n, StoreClass::Permanent)).collect();
    let object = ObjectSpec::new("/test/fan-out")
        .policy(policy)
        .semantics_boxed(doc_factory)
        .stores(&placement)
        .create(&mut sim)
        .unwrap();
    let writer = sim
        .bind(object, client, BindOptions::new().read_node(stores[0]))
        .unwrap();
    for i in 0..8 {
        let put = registers::put(&format!("page{}", i % 3), format!("v{i}").as_bytes());
        sim.issue_write(&writer, put).unwrap();
    }
    sim.run_for(Duration::from_secs(1));

    let frames = {
        let metrics = sim.metrics();
        let metrics = metrics.lock();
        ["Update", "UpdateBatch", "WriteBatch"]
            .iter()
            .map(|kind| metrics.traffic.get(kind).map_or(0, |k| k.count))
            .sum()
    };
    let mut pages = Vec::new();
    for &node in &stores {
        let reader = sim
            .bind(object, client, BindOptions::new().read_node(node))
            .unwrap();
        for page in 0..3 {
            let get = registers::get(&format!("page{page}"));
            pages.push(sim.handle(reader).read(get).unwrap().to_vec());
        }
    }
    (frames, pages)
}

fn fifo_immediate() -> ReplicationPolicy {
    ReplicationPolicy::builder(ObjectModel::Fifo)
        .immediate()
        .build()
        .unwrap()
}

/// What group commit buys, as a count: eight writes staged into one
/// batch reach each mirror in fewer frames than eight per-write
/// `Update`s, and every store ends on the same pages either way.
#[test]
fn group_commit_fans_out_fewer_frames_for_the_same_pages() {
    let plain = RuntimeConfig::new().seed(17);
    let (plain_frames, plain_pages) = pipelined_fan_out(fifo_immediate(), plain.clone());
    assert_eq!(plain_frames, 8 * 3, "one Update per write per mirror");

    let batched = plain.batch_max(8).batch_window(Duration::from_millis(5));
    let (batched_frames, batched_pages) = pipelined_fan_out(fifo_immediate(), batched);
    assert!(
        batched_frames < plain_frames,
        "batched fan-out took {batched_frames} frames, unbatched {plain_frames}"
    );
    assert_eq!(
        batched_pages, plain_pages,
        "group commit must not change what any store serves"
    );
}

/// Table 1's transfer instant (§3.3): for an often-modified object "it
/// may be more efficient to implement a periodic update in which
/// several updates are aggregated, instead of an immediate one".
#[test]
fn lazy_transfer_aggregates_a_burst_into_fewer_frames() {
    let config = RuntimeConfig::new().seed(17);
    let (immediate_frames, immediate_pages) = pipelined_fan_out(fifo_immediate(), config.clone());
    let lazy = ReplicationPolicy::builder(ObjectModel::Fifo)
        .lazy(Duration::from_millis(200))
        .build()
        .unwrap();
    let (lazy_frames, lazy_pages) = pipelined_fan_out(lazy, config);
    assert!(
        lazy_frames < immediate_frames,
        "lazy transfer took {lazy_frames} frames, immediate {immediate_frames}"
    );
    assert_eq!(lazy_pages, immediate_pages, "both must converge alike");
}

#[test]
fn pram_over_lossy_links_recovers_with_demand_reaction() {
    // §4.2: "simply by changing the object-outdate reaction parameter
    // from wait to demand, reliability comes as a side-effect of the
    // coherence model." Lossy, non-FIFO (UDP-like) links; pipelined
    // writes; the demand reaction must recover every loss.
    let link = LinkConfig::new(Duration::from_millis(10))
        .with_loss(0.25)
        .with_fifo(false);
    let policy = ReplicationPolicy::builder(ObjectModel::Pram)
        .immediate()
        .object_outdate(OutdateReaction::Demand)
        .build()
        .unwrap();
    let (mut sim, object, server, caches) = setup(policy, 2, Topology::uniform(link), 16);
    let master = sim
        .bind(object, server, BindOptions::new().read_node(server))
        .unwrap();
    for i in 0..20 {
        sim.issue_write(&master, registers::put("page", format!("v{i}").as_bytes()))
            .unwrap();
        sim.run_for(Duration::from_millis(40));
    }
    sim.run_for(Duration::from_secs(60));
    sim.finalize_digests();

    let server_digest = sim.store_digest(object, server).unwrap();
    for &cache in &caches {
        assert_eq!(
            sim.store_digest(object, cache),
            Some(server_digest),
            "demand reaction failed to recover losses at {cache}"
        );
    }
    let history = sim.history();
    let history = history.lock();
    check::check_pram(&history).unwrap();
    // All 20 writes must have reached the server despite client→server loss.
    assert_eq!(
        history
            .store_applies(globe_coherence::StoreId::new(0))
            .count(),
        20
    );
}

#[test]
fn pram_over_lossy_links_stalls_with_wait_reaction() {
    // The control arm of the §4.2 experiment: with `wait`, losses are
    // never recovered and replicas stay behind.
    let link = LinkConfig::new(Duration::from_millis(10))
        .with_loss(0.25)
        .with_fifo(false);
    let policy = ReplicationPolicy::builder(ObjectModel::Pram)
        .immediate()
        .object_outdate(OutdateReaction::Wait)
        .build()
        .unwrap();
    let (mut sim, object, server, caches) = setup(policy, 2, Topology::uniform(link), 16);
    let master = sim
        .bind(object, server, BindOptions::new().read_node(server))
        .unwrap();
    for i in 0..20 {
        sim.issue_write(&master, registers::put("page", format!("v{i}").as_bytes()))
            .unwrap();
        sim.run_for(Duration::from_millis(40));
    }
    sim.run_for(Duration::from_secs(60));
    sim.finalize_digests();
    let server_version = sim.store_version(object, server).unwrap();
    let lagging = caches.iter().any(|&cache| {
        sim.store_version(object, cache)
            .map(|v| v != server_version)
            .unwrap_or(true)
    }) || server_version.get(master.client) < 20;
    assert!(
        lagging,
        "with 25% loss and wait reaction, something must be missing"
    );
}

#[test]
fn dynamic_policy_switch_takes_effect() {
    // Start lazy with a long period; switch to immediate at run time; the
    // next write must propagate promptly (§5: dynamically adaptable).
    let policy = ReplicationPolicy::builder(ObjectModel::Pram)
        .lazy(Duration::from_secs(30))
        .build()
        .unwrap();
    let (mut sim, object, server, caches) = setup(policy, 1, Topology::lan(), 17);
    let master = sim
        .bind(object, server, BindOptions::new().read_node(server))
        .unwrap();
    let reader = sim
        .bind(object, caches[0], BindOptions::new().read_node(caches[0]))
        .unwrap();
    sim.handle(master)
        .write(registers::put("page", b"lazy"))
        .unwrap();
    sim.run_for(Duration::from_secs(2));
    let got = sim.handle(reader).read(registers::get("page")).unwrap();
    assert!(got.is_empty(), "30s lazy period: cache must still be stale");

    let immediate = ReplicationPolicy::builder(ObjectModel::Pram)
        .immediate()
        .build()
        .unwrap();
    sim.set_policy(object, immediate).unwrap();
    sim.handle(master)
        .write(registers::put("page", b"fast"))
        .unwrap();
    sim.run_for(Duration::from_secs(1));
    let got = sim.handle(reader).read(registers::get("page")).unwrap();
    assert_eq!(&got[..], b"fast", "immediate policy should have pushed");
}

#[test]
fn dynamic_mirror_installation_syncs_state() {
    let policy = ReplicationPolicy::builder(ObjectModel::Pram)
        .immediate()
        .build()
        .unwrap();
    let (mut sim, object, server, _) = setup(policy, 0, Topology::wan(), 18);
    let master = sim
        .bind(object, server, BindOptions::new().read_node(server))
        .unwrap();
    sim.handle(master)
        .write(registers::put("page", b"before-mirror"))
        .unwrap();

    // Install an object-initiated store (mirror) at run time.
    let mirror_node = sim.add_node_in(globe_net::RegionId::new(1));
    sim.add_store(
        object,
        mirror_node,
        StoreClass::ObjectInitiated,
        Box::new(RegisterDoc::new()),
    )
    .unwrap();
    sim.run_for(Duration::from_secs(2)); // initial sync

    let reader = sim
        .bind(
            object,
            mirror_node,
            BindOptions::new().read_node(mirror_node),
        )
        .unwrap();
    let got = sim.handle(reader).read(registers::get("page")).unwrap();
    assert_eq!(&got[..], b"before-mirror", "mirror missed initial sync");

    // And it receives subsequent pushes.
    sim.handle(master)
        .write(registers::put("page", b"after-mirror"))
        .unwrap();
    sim.run_for(Duration::from_secs(2));
    let got = sim.handle(reader).read(registers::get("page")).unwrap();
    assert_eq!(&got[..], b"after-mirror");
}

#[test]
fn partition_heals_and_replicas_catch_up() {
    let policy = ReplicationPolicy::builder(ObjectModel::Eventual)
        .lazy(Duration::from_millis(500))
        .build()
        .unwrap();
    let (mut sim, object, server, caches) = setup(policy, 1, Topology::lan(), 19);
    let master = sim
        .bind(object, server, BindOptions::new().read_node(server))
        .unwrap();
    sim.topology_mut().partition(server, caches[0]);
    sim.handle(master)
        .write(registers::put("page", b"during-partition"))
        .unwrap();
    sim.run_for(Duration::from_secs(3));
    assert_ne!(
        sim.store_digest(object, caches[0]),
        sim.store_digest(object, server),
        "partitioned cache cannot have the update"
    );
    sim.topology_mut().heal(server, caches[0]);
    sim.run_for(Duration::from_secs(3));
    assert_eq!(
        sim.store_digest(object, caches[0]),
        sim.store_digest(object, server),
        "after healing, anti-entropy must converge the cache"
    );
}

#[test]
fn store_scope_limits_which_layers_get_strong_coherence() {
    // Scope = permanent only: the mirror and cache still receive data,
    // but only through the out-of-scope lazy path.
    let policy = ReplicationPolicy::builder(ObjectModel::Pram)
        .store_scope(globe_core::StoreScope::Permanent)
        .immediate()
        .period(Duration::from_millis(800))
        .build()
        .unwrap();
    let mut sim = GlobeSim::new(Topology::lan(), 20);
    let server = sim.add_node();
    let second_permanent = sim.add_node();
    let mirror = sim.add_node();
    let object = ObjectSpec::new("/scoped")
        .policy(policy)
        .semantics_boxed(doc_factory)
        .store(server, StoreClass::Permanent)
        .store(second_permanent, StoreClass::Permanent)
        .store(mirror, StoreClass::ObjectInitiated)
        .create(&mut sim)
        .unwrap();
    let master = sim
        .bind(object, server, BindOptions::new().read_node(server))
        .unwrap();
    sim.handle(master)
        .write(registers::put("page", b"v1"))
        .unwrap();
    // Immediately after the write: the in-scope permanent store has it...
    sim.run_for(Duration::from_millis(100));
    assert_eq!(
        sim.store_version(object, second_permanent)
            .unwrap()
            .get(master.client),
        1,
        "in-scope permanent store should get immediate push"
    );
    // ...the out-of-scope mirror does not yet.
    assert_eq!(
        sim.store_version(object, mirror)
            .unwrap()
            .get(master.client),
        0,
        "out-of-scope mirror must wait for the lazy flush"
    );
    sim.run_for(Duration::from_secs(2));
    assert_eq!(
        sim.store_version(object, mirror)
            .unwrap()
            .get(master.client),
        1,
        "lazy flush should eventually serve the mirror"
    );
}
