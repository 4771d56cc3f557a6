//! Every scenario preset in the library must build, run its default
//! workload, and leave a history that satisfies its object's coherence
//! model — the §1 document gallery as an executable regression suite.

use std::time::Duration;

use globe_coherence::{check, ObjectModel, StoreClass};
use globe_core::{
    BindOptions, GlobeRuntime, GlobeSim, ObjectSpec, ReplicationPolicy, RuntimeConfig,
};
use globe_net::Topology;
use globe_web::{methods, WebSemantics};
use globe_workload::{run_workload, scenario, Arrival, WorkloadSpec};

fn shrink(spec: WorkloadSpec) -> WorkloadSpec {
    WorkloadSpec {
        duration: Duration::from_secs(20),
        drain: Duration::from_secs(10),
        ..spec
    }
}

fn run_and_check(
    built: (scenario::ScenarioInstance, WorkloadSpec),
    model: ObjectModel,
) -> globe_workload::WorkloadOutcome {
    let (mut instance, spec) = built;
    let spec = shrink(spec);
    let outcome = run_workload(
        &mut instance.sim,
        &instance.readers,
        &instance.writers,
        &spec,
    );
    assert!(outcome.reads_issued > 0, "{}: no reads", instance.name);
    assert_eq!(
        outcome.writes_completed, outcome.writes_issued,
        "{}: writes lost on a clean network",
        instance.name
    );
    let history = instance.sim.history();
    let history = history.lock();
    check::check_object_model(&history, model).unwrap_or_else(|v| panic!("{}: {v}", instance.name));
    outcome
}

#[test]
fn conference_page_scenario() {
    let outcome = run_and_check(scenario::conference_page(101).unwrap(), ObjectModel::Pram);
    // The master's RYW guard forces demand traffic or fresh pushes; the
    // lazy strategy keeps messages per op modest.
    assert!(outcome.messages_per_op() < 10.0, "{outcome:?}");
}

#[test]
fn personal_home_page_scenario() {
    let (instance, spec) = scenario::personal_home_page(102).unwrap();
    // Eventual model: run then verify convergence by digest.
    let mut instance = instance;
    let spec = shrink(spec);
    let _ = run_workload(
        &mut instance.sim,
        &instance.readers,
        &instance.writers,
        &spec,
    );
    instance.sim.run_for(Duration::from_secs(30)); // pull period is 10 s
    instance.sim.finalize_digests();
    let history = instance.sim.history();
    let history = history.lock();
    check::check_eventual(&history).expect("home page replicas converge");
}

#[test]
fn popular_event_scenario() {
    let outcome = run_and_check(scenario::popular_event(103).unwrap(), ObjectModel::Fifo);
    // Twelve readers against mirrors: reads dominate and stay local.
    assert!(outcome.reads_completed > outcome.writes_completed * 3);
}

#[test]
fn news_forum_scenario() {
    let (instance, spec) = scenario::news_forum(104).unwrap();
    let mut instance = instance;
    let spec = shrink(spec);
    let _ = run_workload(
        &mut instance.sim,
        &instance.readers,
        &instance.writers,
        &spec,
    );
    let history = instance.sim.history();
    let history = history.lock();
    check::check_causal(&history).expect("forum causality");
    // Writers carry the WFR guard; verify it held for each.
    for writer in &instance.writers {
        check::check_writes_follow_reads(&history, writer.client).expect("wfr for writer");
    }
    for reader in &instance.readers {
        check::check_monotonic_reads(&history, reader.client).expect("mr for reader");
    }
}

#[test]
fn whiteboard_scenario() {
    run_and_check(scenario::whiteboard(105).unwrap(), ObjectModel::Sequential);
}

/// Two writers through the home and one reader at a permanent mirror
/// run a short seeded workload; returns the hottest page as the
/// writer-side and the reader-side replica serve it once settled.
fn shared_whiteboard_pages(sim: &mut GlobeSim) -> (Vec<u8>, Vec<u8>) {
    let server = sim.add_node();
    let mirror = sim.add_node();
    let writer_node = sim.add_node();
    let reader_node = sim.add_node();
    let object = ObjectSpec::new("/workload/shared")
        .policy(ReplicationPolicy::whiteboard())
        .semantics(WebSemantics::new)
        .store(server, StoreClass::Permanent)
        .store(mirror, StoreClass::Permanent)
        .create(sim)
        .unwrap();
    let to_server = BindOptions::new().read_node(server);
    let writers = [
        sim.bind(object, writer_node, to_server.clone()).unwrap(),
        sim.bind(object, writer_node, to_server).unwrap(),
    ];
    let readers = [sim
        .bind(object, reader_node, BindOptions::new().read_node(mirror))
        .unwrap()];
    let spec = WorkloadSpec {
        duration: Duration::from_millis(400),
        drain: Duration::from_millis(400),
        pages: 2,
        zipf_theta: 0.9,
        page_bytes: 64,
        incremental: true,
        reader_arrival: Arrival::Poisson(60.0),
        writer_arrival: Arrival::Poisson(30.0),
        seed: 11,
    };
    let outcome = run_workload(sim, &readers, &writers, &spec);
    assert!(outcome.reads_completed > 0, "{outcome:?}");
    assert!(outcome.writes_completed > 0, "{outcome:?}");
    sim.run_for(Duration::from_millis(300));

    // The Zipf head page is all but certain to have been written.
    let mut read = |handle| {
        sim.handle(handle)
            .read(methods::get_page("page000"))
            .unwrap()
            .to_vec()
    };
    (read(writers[0]), read(readers[0]))
}

/// Group commit plus read leases must be a pure scheduling change: on
/// the deterministic simulator (fixed-latency LAN links, open-loop
/// arrivals), the batched-and-leased run assigns the same total order
/// as the unbatched run, so both end on bit-identical final pages.
#[test]
fn batched_with_leases_matches_unbatched_on_sim() {
    let mut plain = GlobeSim::new(Topology::lan(), 31);
    let (plain_w, plain_r) = shared_whiteboard_pages(&mut plain);
    assert_eq!(plain_w, plain_r, "settled replicas serve the same page");

    let config = RuntimeConfig::new()
        .seed(31)
        .batch_max(8)
        .batch_window(Duration::from_millis(5))
        .read_leases(true)
        .lease_duration(Duration::from_secs(2));
    let mut batched = GlobeSim::with_config(Topology::lan(), config);
    let (batched_w, batched_r) = shared_whiteboard_pages(&mut batched);
    assert_eq!(
        batched_w, plain_w,
        "group commit must not change the sequenced outcome"
    );
    assert_eq!(
        batched_r, plain_r,
        "leased reads must serve the same converged state"
    );

    // The reader goes through the leased mirror: the always-on protocol
    // counters must show reads served locally under the lease.
    let metrics = batched.metrics();
    let served = metrics.lock().protocol.lease_served;
    assert!(
        served > 0,
        "leased mirror reads must count as served locally"
    );
}
