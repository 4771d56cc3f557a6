//! The model matrix: every object-based coherence model runs the same
//! randomized multi-writer workload, and the recorded history must pass
//! its model's checker. Every client-based model is exercised on top of
//! a weaker object model and must hold for the guarded client.

use std::time::Duration;

use globe::prelude::*;
use globe::workload::{build, run_workload, SetupSpec, TopologyKind};

fn spec_for(model: ObjectModel, seed: u64) -> SetupSpec {
    let policy = ReplicationPolicy::builder(model)
        .immediate()
        .build()
        .expect("valid policy");
    SetupSpec {
        name: format!("/matrix/{}", model.paper_name()),
        topology: TopologyKind::Wan,
        mirrors: 1,
        caches: 2,
        readers: 4,
        writers: 2,
        policy,
        reader_guards: vec![],
        writer_guards: vec![],
        local_writes: false,
        seed,
    }
}

fn short_workload(seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        duration: Duration::from_secs(30),
        drain: Duration::from_secs(15),
        pages: 5,
        zipf_theta: 0.8,
        page_bytes: 128,
        incremental: true,
        reader_arrival: Arrival::Poisson(1.0),
        writer_arrival: Arrival::Poisson(0.4),
        seed,
    }
}

#[test]
fn every_model_passes_its_checker() {
    for (seed, model) in [
        (10, ObjectModel::Sequential),
        (11, ObjectModel::Pram),
        (12, ObjectModel::Fifo),
        (13, ObjectModel::Causal),
        (14, ObjectModel::Eventual),
    ] {
        let mut instance = build(&spec_for(model, seed)).expect("setup");
        let outcome = run_workload(
            &mut instance.sim,
            &instance.readers,
            &instance.writers,
            &short_workload(seed),
        );
        assert!(outcome.reads_completed > 0, "{model}: no reads completed");
        assert_eq!(
            outcome.writes_completed, outcome.writes_issued,
            "{model}: writes lost on a clean network"
        );
        let history = instance.sim.history();
        let history = history.lock();
        globe::coherence::check::check_object_model(&history, model)
            .unwrap_or_else(|violation| panic!("{model} violated: {violation}"));
    }
}

/// §3.2's cost claim: sequential coherence "is hard to implement
/// efficiently" because every write waits for the one sequencer, while
/// PRAM needs only a local sequence number — with local write ingress
/// a PRAM write is acknowledged by the nearest store, a sequential one
/// after the round trip to the home.
#[test]
fn sequential_writes_pay_the_sequencer_round_trip() {
    let write_p50 = |model| {
        let mut spec = spec_for(model, 15);
        spec.local_writes = true;
        let mut instance = build(&spec).expect("setup");
        let outcome = run_workload(
            &mut instance.sim,
            &instance.readers,
            &instance.writers,
            &short_workload(15),
        );
        assert_eq!(outcome.writes_completed, outcome.writes_issued);
        outcome.write_latency.p50
    };
    let (sequential, pram) = (
        write_p50(ObjectModel::Sequential),
        write_p50(ObjectModel::Pram),
    );
    assert!(
        pram * 100 < sequential,
        "PRAM write p50 {pram:?} should be local, sequential {sequential:?} a WAN round trip"
    );
}

#[test]
fn eventual_converges_for_every_model() {
    // Ordering models are also eventually convergent on a clean network
    // once traffic drains (single-ingress architecture).
    for (seed, model) in [
        (20, ObjectModel::Sequential),
        (21, ObjectModel::Pram),
        (23, ObjectModel::Causal),
        (24, ObjectModel::Eventual),
    ] {
        let mut instance = build(&spec_for(model, seed)).expect("setup");
        let _ = run_workload(
            &mut instance.sim,
            &instance.readers,
            &instance.writers,
            &short_workload(seed),
        );
        instance.sim.run_for(Duration::from_secs(10));
        instance.sim.finalize_digests();
        let history = instance.sim.history();
        let history = history.lock();
        globe::coherence::check::check_eventual(&history)
            .unwrap_or_else(|violation| panic!("{model} diverged: {violation}"));
    }
}

#[test]
fn every_guard_holds_on_weak_base_models() {
    // Each session guarantee is enforced on a base model that does NOT
    // subsume it, for both readers and writers.
    let cases = [
        (ObjectModel::Eventual, ClientModel::MonotonicWrites),
        (ObjectModel::Eventual, ClientModel::WritesFollowReads),
        (ObjectModel::Pram, ClientModel::ReadYourWrites),
        (ObjectModel::Pram, ClientModel::MonotonicReads),
        (ObjectModel::Fifo, ClientModel::ReadYourWrites),
        (ObjectModel::Eventual, ClientModel::MonotonicReads),
    ];
    for (round, (model, guard)) in cases.into_iter().enumerate() {
        let seed = 30 + round as u64;
        assert!(
            !model.subsumes(guard),
            "test must target non-subsumed combos"
        );
        let mut spec = spec_for(model, seed);
        spec.name = format!("/guards/{round}");
        spec.policy = ReplicationPolicy::builder(model)
            .lazy(Duration::from_secs(2))
            .client_outdate(OutdateReaction::Demand)
            .build()
            .expect("valid");
        spec.reader_guards = vec![guard];
        spec.writer_guards = vec![guard];
        let mut instance = build(&spec).expect("setup");
        let _ = run_workload(
            &mut instance.sim,
            &instance.readers,
            &instance.writers,
            &short_workload(seed),
        );
        let history = instance.sim.history();
        let history = history.lock();
        for handle in instance.readers.iter().chain(&instance.writers) {
            globe::coherence::check::check_session(&history, handle.client, guard).unwrap_or_else(
                |violation| {
                    panic!(
                        "{guard} on {model} violated for {}: {violation}",
                        handle.client
                    )
                },
            );
        }
    }
}

#[test]
fn subsumption_matrix_matches_enforcement() {
    // Sequential subsumes everything: the bind layer must strip guards.
    let policy = ReplicationPolicy::whiteboard();
    let mut sim = GlobeSim::new(Topology::lan(), 40);
    let server = sim.add_node();
    let object = ObjectSpec::new("/subsume")
        .policy(policy)
        .semantics(WebSemantics::new)
        .store(server, StoreClass::Permanent)
        .create(&mut sim)
        .expect("create");
    let handle = sim
        .bind(
            object,
            server,
            BindOptions::new()
                .read_node(server)
                .guard(ClientModel::ReadYourWrites)
                .guard(ClientModel::MonotonicReads)
                .guard(ClientModel::MonotonicWrites)
                .guard(ClientModel::WritesFollowReads),
        )
        .expect("bind");
    // All four guarantees hold without any guard machinery, because the
    // object model provides them.
    sim.handle(handle)
        .write(methods::put_page("p", &Page::html("v")))
        .expect("write");
    let _ = sim
        .handle(handle)
        .read(methods::get_page("p"))
        .expect("read");
    let history = sim.history();
    let history = history.lock();
    for &guard in ClientModel::ALL {
        globe::coherence::check::check_session(&history, handle.client, guard)
            .expect("sequential subsumes all session guarantees");
    }
}
