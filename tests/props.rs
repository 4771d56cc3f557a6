//! Property tests over whole distributed executions: random workloads,
//! random (seeded) networks, arbitrary interleavings — the recorded
//! history must always satisfy the object's coherence model, and the
//! guarded clients' session guarantees must always hold.

use std::time::Duration;

use globe::prelude::*;
use proptest::prelude::*;

fn doc() -> Box<dyn globe::core::Semantics> {
    Box::new(WebSemantics::new())
}

#[derive(Debug, Clone)]
struct RandomRun {
    seed: u64,
    model: ObjectModel,
    jitter_ms: u64,
    fifo: bool,
    guards: Vec<ClientModel>,
    ops: Vec<(u8, u8, bool)>, // (client 0..3, page 0..3, is_write)
}

fn arb_run() -> impl Strategy<Value = RandomRun> {
    (
        any::<u64>(),
        prop::sample::select(vec![
            ObjectModel::Sequential,
            ObjectModel::Pram,
            ObjectModel::Fifo,
            ObjectModel::Causal,
            ObjectModel::Eventual,
        ]),
        0u64..60,
        any::<bool>(),
        prop::collection::vec(
            prop::sample::select(vec![
                ClientModel::ReadYourWrites,
                ClientModel::MonotonicReads,
                ClientModel::MonotonicWrites,
                ClientModel::WritesFollowReads,
            ]),
            0..3,
        ),
        prop::collection::vec((0u8..3, 0u8..3, any::<bool>()), 1..40),
    )
        .prop_map(|(seed, model, jitter_ms, fifo, guards, ops)| RandomRun {
            seed,
            model,
            jitter_ms,
            fifo,
            guards,
            ops,
        })
}

fn execute(run: &RandomRun) -> (GlobeSim, Vec<ClientHandle>, ObjectId) {
    let link = LinkConfig::new(Duration::from_millis(5))
        .with_jitter(Duration::from_millis(run.jitter_ms))
        .with_fifo(run.fifo);
    let policy = ReplicationPolicy::builder(run.model)
        .immediate()
        .build()
        .expect("valid");
    let mut sim = GlobeSim::new(Topology::uniform(link), run.seed);
    let server = sim.add_node();
    let caches = [sim.add_node(), sim.add_node()];
    let object = ObjectSpec::new("/prop/object")
        .policy(policy)
        .semantics_boxed(doc)
        .store(server, StoreClass::Permanent)
        .store(caches[0], StoreClass::ClientInitiated)
        .store(caches[1], StoreClass::ClientInitiated)
        .create(&mut sim)
        .expect("create");
    let nodes = [server, caches[0], caches[1]];
    let handles: Vec<ClientHandle> = (0..3)
        .map(|i| {
            let mut opts = BindOptions::new().read_node(nodes[i]);
            for &g in &run.guards {
                opts = opts.guard(g);
            }
            sim.bind(object, nodes[i], opts).expect("bind")
        })
        .collect();
    for &(client, page, is_write) in &run.ops {
        let handle = handles[client as usize];
        let page_name = format!("p{page}");
        if is_write {
            // Eventual coherence only promises convergence for
            // overwrite-style (LWW-able) writes; incremental patches are
            // non-commutative and need an ordering model.
            let inv = if run.model == ObjectModel::Eventual {
                methods::put_page(&page_name, &Page::html(format!("w{client};")))
            } else {
                methods::patch_page(&page_name, format!("w{client};").as_bytes())
            };
            let _ = sim.handle(handle).write(inv);
        } else {
            let _ = sim.handle(handle).read(methods::get_page(&page_name));
        }
        sim.run_for(Duration::from_millis(20));
    }
    sim.run_for(Duration::from_secs(10));
    sim.finalize_digests();
    (sim, handles, object)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the model, seed, jitter, and op mix: the model's own
    /// checker passes and read integrity holds.
    #[test]
    fn random_runs_satisfy_their_model(run in arb_run()) {
        let (sim, _handles, _object) = execute(&run);
        let _ = &_handles;
        let history = sim.history();
        let history = history.lock();
        globe::coherence::check::check_object_model(&history, run.model)
            .map_err(|v| TestCaseError::fail(format!("{} violated: {v}", run.model)))?;
        // Eventual resolves concurrent same-page writes by LWW, so its
        // visible value is the LWW winner, not the last applied write.
        let integrity = if run.model == ObjectModel::Eventual {
            globe::coherence::check::check_read_integrity_lww(&history)
        } else {
            globe::coherence::check::check_read_integrity(&history)
        };
        integrity.map_err(|v| TestCaseError::fail(format!("read integrity: {v}")))?;
        // Every requested session guarantee must have held for every
        // client (guards the object model subsumes hold a fortiori).
        for handle in &_handles {
            for &guard in &run.guards {
                globe::coherence::check::check_session(&history, handle.client, guard)
                    .map_err(|v| TestCaseError::fail(format!("{guard} violated: {v}")))?;
            }
        }
    }

    /// On FIFO lossless links, every model converges at quiescence.
    #[test]
    fn random_runs_converge(mut run in arb_run()) {
        run.fifo = true; // lossless FIFO: convergence must be exact
        let (sim, _handles, object) = execute(&run);
        let stores = sim.stores_of(object);
        let digests: Vec<Option<u64>> = stores
            .iter()
            .map(|(node, _, _)| sim.store_digest(object, *node))
            .collect();
        for pair in digests.windows(2) {
            prop_assert_eq!(pair[0], pair[1], "replicas diverged in {:?}", run.model);
        }
    }

    /// Identical runs are bit-for-bit reproducible.
    #[test]
    fn runs_are_deterministic(run in arb_run()) {
        let (sim_a, _, object_a) = execute(&run);
        let (sim_b, _, object_b) = execute(&run);
        prop_assert_eq!(sim_a.net_stats(), sim_b.net_stats());
        // One history lock at a time: two are the same lock rank.
        let counts = |history: globe::core::SharedHistory| {
            let history = history.lock();
            (history.ops().len(), history.applies().len())
        };
        let (a, b) = (counts(sim_a.history()), counts(sim_b.history()));
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
        let da: Vec<_> = sim_a.stores_of(object_a).iter().map(|(n, _, _)| sim_a.store_digest(object_a, *n)).collect();
        let db: Vec<_> = sim_b.stores_of(object_b).iter().map(|(n, _, _)| sim_b.store_digest(object_b, *n)).collect();
        prop_assert_eq!(da, db);
    }
}
