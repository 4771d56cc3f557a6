//! Scenario library: the document classes motivating the paper (§1),
//! each with its own replication policy and deployment shape.

use std::time::Duration;

use globe_coherence::{ClientModel, StoreClass};
use globe_core::{
    BindOptions, ClientHandle, GlobeRuntime, GlobeSim, ObjectSpec, ReplicationPolicy, RuntimeError,
};
use globe_naming::ObjectId;
use globe_net::{NodeId, RegionId, Topology};
use globe_web::WebSemantics;

use crate::{Arrival, WorkloadSpec};

/// Shape of the simulated internet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TopologyKind {
    /// Single-site LAN.
    Lan,
    /// Two regions with WAN latency between them.
    #[default]
    Wan,
}

/// Declarative description of a deployment to build.
#[derive(Debug, Clone)]
pub struct SetupSpec {
    /// Object name to register.
    pub name: String,
    /// Network shape.
    pub topology: TopologyKind,
    /// Object-initiated mirrors (placed round-robin across regions).
    pub mirrors: usize,
    /// Client-initiated caches (placed round-robin across regions).
    pub caches: usize,
    /// Reader clients, bound round-robin to caches/mirrors.
    pub readers: usize,
    /// Writer clients (bound at the home region).
    pub writers: usize,
    /// The object's replication policy.
    pub policy: ReplicationPolicy,
    /// Session guards for every reader.
    pub reader_guards: Vec<ClientModel>,
    /// Session guards for every writer.
    pub writer_guards: Vec<ClientModel>,
    /// Route writes through each writer's bound store instead of the
    /// home store, when the coherence model allows local write ingress.
    pub local_writes: bool,
    /// Simulation seed.
    pub seed: u64,
}

impl SetupSpec {
    /// A minimal server-plus-one-cache setup with the given policy.
    pub fn simple(policy: ReplicationPolicy, seed: u64) -> Self {
        SetupSpec {
            name: "/object".to_string(),
            topology: TopologyKind::Wan,
            mirrors: 0,
            caches: 1,
            readers: 2,
            writers: 1,
            policy,
            reader_guards: Vec::new(),
            writer_guards: Vec::new(),
            local_writes: false,
            seed,
        }
    }
}

/// A built simulation with bound clients, ready for a workload run.
pub struct ScenarioInstance {
    /// Human-readable scenario name.
    pub name: String,
    /// The simulation.
    pub sim: GlobeSim,
    /// The Web object under test.
    pub object: ObjectId,
    /// The home (permanent) store node.
    pub server: NodeId,
    /// Mirror nodes.
    pub mirrors: Vec<NodeId>,
    /// Cache nodes.
    pub caches: Vec<NodeId>,
    /// Bound readers.
    pub readers: Vec<ClientHandle>,
    /// Bound writers.
    pub writers: Vec<ClientHandle>,
}

/// Builds a deployment per `spec`.
///
/// # Errors
///
/// Returns a [`RuntimeError`] if object creation or binding fails.
pub fn build(spec: &SetupSpec) -> Result<ScenarioInstance, RuntimeError> {
    let topology = match spec.topology {
        TopologyKind::Lan => Topology::lan(),
        TopologyKind::Wan => Topology::wan(),
    };
    let mut sim = GlobeSim::new(topology, spec.seed);
    let regions = [RegionId::new(0), RegionId::new(1)];
    let server = sim.add_node_in(regions[0]);
    let mirrors: Vec<NodeId> = (0..spec.mirrors)
        .map(|i| sim.add_node_in(regions[(i + 1) % regions.len()]))
        .collect();
    let caches: Vec<NodeId> = (0..spec.caches)
        .map(|i| sim.add_node_in(regions[i % regions.len()]))
        .collect();

    let mut placement = vec![(server, StoreClass::Permanent)];
    placement.extend(mirrors.iter().map(|&n| (n, StoreClass::ObjectInitiated)));
    placement.extend(caches.iter().map(|&n| (n, StoreClass::ClientInitiated)));
    let object = ObjectSpec::new(&spec.name)
        .policy(spec.policy.clone())
        .semantics(WebSemantics::new)
        .stores(&placement)
        .create(&mut sim)?;

    // Readers bind round-robin across the non-permanent replicas (or the
    // server if there are none).
    let read_targets: Vec<NodeId> = if caches.is_empty() && mirrors.is_empty() {
        vec![server]
    } else {
        caches.iter().chain(mirrors.iter()).copied().collect()
    };
    let mut readers = Vec::with_capacity(spec.readers);
    for i in 0..spec.readers {
        let target = read_targets[i % read_targets.len()];
        let mut opts = BindOptions::new().read_node(target);
        for &g in &spec.reader_guards {
            opts = opts.guard(g);
        }
        readers.push(sim.bind(object, target, opts)?);
    }
    // Writers bind round-robin across the read targets (the first writer
    // at the first target, like the master reading through its own
    // cache). With `local_writes`, their writes enter at the bound store.
    let mut writers = Vec::with_capacity(spec.writers);
    for i in 0..spec.writers {
        let target = read_targets[i % read_targets.len()];
        let mut opts = BindOptions::new().read_node(target);
        if spec.local_writes {
            opts = opts.write_local();
        }
        for &g in &spec.writer_guards {
            opts = opts.guard(g);
        }
        writers.push(sim.bind(object, target, opts)?);
    }

    Ok(ScenarioInstance {
        name: spec.name.clone(),
        sim,
        object,
        server,
        mirrors,
        caches,
        readers,
        writers,
    })
}

/// The §4 conference home page: PRAM + RYW master, periodic push of
/// partial updates, user caches.
pub fn conference_page(seed: u64) -> Result<(ScenarioInstance, WorkloadSpec), RuntimeError> {
    let setup = SetupSpec {
        name: "/conf/icdcs98".to_string(),
        topology: TopologyKind::Wan,
        mirrors: 0,
        caches: 2,
        readers: 6,
        writers: 1,
        policy: ReplicationPolicy::conference_page(),
        reader_guards: vec![],
        writer_guards: vec![ClientModel::ReadYourWrites],
        local_writes: false,
        seed,
    };
    let spec = WorkloadSpec {
        duration: Duration::from_secs(120),
        drain: Duration::from_secs(10),
        pages: 6,
        zipf_theta: 0.6,
        page_bytes: 256,
        incremental: true,
        reader_arrival: Arrival::Poisson(0.5),
        writer_arrival: Arrival::Fixed(Duration::from_secs(7)),
        seed,
    };
    Ok((build(&setup)?, spec))
}

/// §1's personal home page: one server, browser caches, eventual pull.
pub fn personal_home_page(seed: u64) -> Result<(ScenarioInstance, WorkloadSpec), RuntimeError> {
    let setup = SetupSpec {
        name: "/home/alice".to_string(),
        topology: TopologyKind::Wan,
        mirrors: 0,
        caches: 1,
        readers: 2,
        writers: 1,
        policy: ReplicationPolicy::personal_home_page(),
        reader_guards: vec![],
        writer_guards: vec![],
        local_writes: false,
        seed,
    };
    let spec = WorkloadSpec {
        duration: Duration::from_secs(120),
        pages: 3,
        zipf_theta: 0.2,
        page_bytes: 1024,
        incremental: false,
        reader_arrival: Arrival::Poisson(0.1),
        writer_arrival: Arrival::Poisson(0.02),
        seed,
        ..WorkloadSpec::default()
    };
    Ok((build(&setup)?, spec))
}

/// §1's popular-event page: mirrors in every region, many readers.
pub fn popular_event(seed: u64) -> Result<(ScenarioInstance, WorkloadSpec), RuntimeError> {
    let setup = SetupSpec {
        name: "/events/worldcup".to_string(),
        topology: TopologyKind::Wan,
        mirrors: 2,
        caches: 2,
        readers: 12,
        writers: 1,
        policy: ReplicationPolicy::magazine(),
        reader_guards: vec![],
        writer_guards: vec![],
        local_writes: false,
        seed,
    };
    let spec = WorkloadSpec {
        duration: Duration::from_secs(60),
        pages: 10,
        zipf_theta: 1.0,
        page_bytes: 512,
        incremental: false,
        reader_arrival: Arrival::Poisson(2.0),
        writer_arrival: Arrival::Poisson(0.2),
        seed,
        ..WorkloadSpec::default()
    };
    Ok((build(&setup)?, spec))
}

/// §3.2.1's causal newsgroup.
pub fn news_forum(seed: u64) -> Result<(ScenarioInstance, WorkloadSpec), RuntimeError> {
    let setup = SetupSpec {
        name: "/forum/comp.dist".to_string(),
        topology: TopologyKind::Wan,
        mirrors: 1,
        caches: 2,
        readers: 6,
        writers: 3,
        policy: ReplicationPolicy::news_forum(),
        reader_guards: vec![ClientModel::MonotonicReads],
        writer_guards: vec![ClientModel::WritesFollowReads],
        local_writes: false,
        seed,
    };
    let spec = WorkloadSpec {
        duration: Duration::from_secs(60),
        pages: 12,
        zipf_theta: 0.7,
        page_bytes: 200,
        incremental: true,
        reader_arrival: Arrival::Poisson(1.0),
        writer_arrival: Arrival::Poisson(0.3),
        seed,
        ..WorkloadSpec::default()
    };
    Ok((build(&setup)?, spec))
}

/// §3.2.2's groupware white-board: sequential coherence, multiple
/// writers, strong coherence at every layer.
pub fn whiteboard(seed: u64) -> Result<(ScenarioInstance, WorkloadSpec), RuntimeError> {
    let setup = SetupSpec {
        name: "/apps/whiteboard".to_string(),
        topology: TopologyKind::Lan,
        mirrors: 0,
        caches: 3,
        readers: 3,
        writers: 3,
        policy: ReplicationPolicy::whiteboard(),
        reader_guards: vec![],
        writer_guards: vec![],
        local_writes: false,
        seed,
    };
    let spec = WorkloadSpec {
        duration: Duration::from_secs(30),
        pages: 1,
        zipf_theta: 0.0,
        page_bytes: 64,
        incremental: true,
        reader_arrival: Arrival::Poisson(2.0),
        writer_arrival: Arrival::Poisson(1.0),
        seed,
        ..WorkloadSpec::default()
    };
    Ok((build(&setup)?, spec))
}

#[cfg(test)]
mod tests {
    use crate::run_workload;

    use super::*;

    #[test]
    fn build_produces_expected_shape() {
        let setup = SetupSpec {
            mirrors: 2,
            caches: 3,
            readers: 5,
            writers: 2,
            ..SetupSpec::simple(ReplicationPolicy::magazine(), 4)
        };
        let instance = build(&setup).unwrap();
        assert_eq!(instance.mirrors.len(), 2);
        assert_eq!(instance.caches.len(), 3);
        assert_eq!(instance.readers.len(), 5);
        assert_eq!(instance.writers.len(), 2);
        assert_eq!(instance.sim.stores_of(instance.object).len(), 6);
    }

    #[test]
    fn conference_scenario_runs_clean() {
        let (mut instance, spec) = conference_page(11).unwrap();
        let spec = WorkloadSpec {
            duration: Duration::from_secs(30),
            ..spec
        };
        let outcome = run_workload(
            &mut instance.sim,
            &instance.readers,
            &instance.writers,
            &spec,
        );
        assert!(outcome.writes_issued > 0);
        assert_eq!(outcome.writes_completed, outcome.writes_issued);
        // PRAM order must hold across the conference run.
        let history = instance.sim.history();
        let history = history.lock();
        globe_coherence::check::check_pram(&history).unwrap();
    }

    #[test]
    fn whiteboard_scenario_is_sequential() {
        let (mut instance, spec) = whiteboard(12).unwrap();
        let spec = WorkloadSpec {
            duration: Duration::from_secs(10),
            ..spec
        };
        let _ = run_workload(
            &mut instance.sim,
            &instance.readers,
            &instance.writers,
            &spec,
        );
        let history = instance.sim.history();
        let history = history.lock();
        globe_coherence::check::check_sequential(&history).unwrap();
    }
}
