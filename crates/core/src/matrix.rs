//! The scenario matrix: one scenario body, every backend, identical
//! logical outcomes.
//!
//! The paper's location-transparency claim is only honest if scenario
//! code really is oblivious to the distribution mechanism underneath it.
//! This module turns that claim into a harness: implement [`Scenario`]
//! once against [`GlobeRuntime`], record what the clients logically
//! observe into an [`Observations`] log, and [`run_matrix`] replays the
//! scenario verbatim on the deterministic simulator ([`crate::GlobeSim`]),
//! real sockets ([`crate::GlobeTcp`]), and the in-process sharded
//! backend ([`crate::GlobeShard`]), failing loudly if any backend's
//! observations diverge.
//!
//! # Examples
//!
//! ```no_run
//! use globe_core::matrix::{self, Backend, Observations, Scenario};
//! use globe_core::{registers, BindOptions, GlobeRuntime, ObjectSpec, RuntimeConfig};
//! use globe_coherence::StoreClass;
//!
//! struct HomePage;
//!
//! impl Scenario for HomePage {
//!     fn name(&self) -> &'static str {
//!         "home-page"
//!     }
//!
//!     fn run<R: GlobeRuntime>(
//!         &self,
//!         rt: &mut R,
//!     ) -> Result<Observations, Box<dyn std::error::Error>> {
//!         let server = rt.add_node()?;
//!         let browser = rt.add_node()?;
//!         let object = ObjectSpec::new("/home/alice")
//!             .store(server, StoreClass::Permanent)
//!             .create(rt)?;
//!         let alice = rt.bind(object, browser, BindOptions::new())?;
//!         rt.start(&[browser]);
//!         rt.handle(alice).write(registers::put("index.html", b"hi"))?;
//!         let mut obs = Observations::new();
//!         obs.record("read-back", rt.handle(alice).read(registers::get("index.html"))?);
//!         rt.shutdown();
//!         Ok(obs)
//!     }
//! }
//!
//! let outcomes = matrix::run_matrix(&HomePage, &Backend::ALL, RuntimeConfig::new().seed(42))
//!     .expect("identical outcomes on sim, tcp, and shard");
//! assert_eq!(outcomes.len(), 3);
//! ```

use std::fmt;

use globe_net::Topology;

use crate::{GlobeRuntime, GlobeShard, GlobeSim, GlobeTcp, RuntimeConfig};

/// The runtimes a scenario can be replayed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// [`crate::GlobeSim`]: deterministic discrete-event simulation.
    Sim,
    /// [`crate::GlobeTcp`]: real TCP sockets on loopback.
    Tcp,
    /// [`crate::GlobeShard`]: in-process sharded worker threads.
    Shard,
}

impl Backend {
    /// Every backend, in the order results are reported.
    pub const ALL: [Backend; 3] = [Backend::Sim, Backend::Tcp, Backend::Shard];

    /// A short stable name for reports and assertions.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Tcp => "tcp",
            Backend::Shard => "shard",
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The ordered log of what a scenario's clients logically observed:
/// labeled byte values, equal across backends iff the scenario behaved
/// identically everywhere.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Observations {
    items: Vec<(String, Vec<u8>)>,
}

impl Observations {
    /// An empty log.
    pub fn new() -> Self {
        Observations::default()
    }

    /// Appends one labeled observation.
    pub fn record(&mut self, label: impl Into<String>, value: impl AsRef<[u8]>) {
        self.items.push((label.into(), value.as_ref().to_vec()));
    }

    /// The observations in recording order.
    pub fn items(&self) -> &[(String, Vec<u8>)] {
        &self.items
    }
}

impl fmt::Display for Observations {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (label, value) in &self.items {
            writeln!(f, "  {label} = {:?}", String::from_utf8_lossy(value))?;
        }
        Ok(())
    }
}

/// One scenario written once against the [`GlobeRuntime`] trait.
///
/// The body must go through the trait for every create/bind/invoke call
/// and report client-visible results via [`Observations`]; internal
/// assertions (coherence checks, convergence) are welcome too.
pub trait Scenario {
    /// A short stable name for reports.
    fn name(&self) -> &'static str;

    /// Runs the scenario body on one runtime.
    ///
    /// # Errors
    ///
    /// Any error fails the whole matrix for that backend.
    fn run<R: GlobeRuntime>(&self, rt: &mut R) -> Result<Observations, Box<dyn std::error::Error>>;
}

/// A scenario's outcome on one backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixOutcome {
    /// The backend the scenario ran on.
    pub backend: Backend,
    /// What its clients observed there.
    pub observations: Observations,
}

/// Why a matrix run failed.
#[derive(Debug)]
pub enum MatrixError {
    /// The scenario body itself failed on one backend.
    ScenarioFailed {
        /// The failing backend.
        backend: Backend,
        /// The scenario's name.
        scenario: String,
        /// The underlying error, stringified.
        error: String,
    },
    /// Two backends disagreed on the logical outcome.
    Diverged {
        /// The scenario's name.
        scenario: String,
        /// The reference backend (first in the run order).
        reference: Backend,
        /// The disagreeing backend.
        divergent: Backend,
        /// The reference backend's observations.
        expected: Observations,
        /// The disagreeing backend's observations.
        actual: Observations,
    },
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::ScenarioFailed {
                backend,
                scenario,
                error,
            } => write!(f, "scenario {scenario} failed on {backend}: {error}"),
            MatrixError::Diverged {
                scenario,
                reference,
                divergent,
                expected,
                actual,
            } => write!(
                f,
                "scenario {scenario} diverged: {divergent} disagrees with {reference}\n\
                 {reference} observed:\n{expected}{divergent} observed:\n{actual}"
            ),
        }
    }
}

impl std::error::Error for MatrixError {}

fn run_on(
    scenario: &impl Scenario,
    backend: Backend,
    config: RuntimeConfig,
) -> Result<Observations, MatrixError> {
    let result = match backend {
        Backend::Sim => scenario.run(&mut GlobeSim::with_config(Topology::lan(), config)),
        Backend::Tcp => scenario.run(&mut GlobeTcp::with_config(config)),
        Backend::Shard => scenario.run(&mut GlobeShard::with_config(config)),
    };
    result.map_err(|e| MatrixError::ScenarioFailed {
        backend,
        scenario: scenario.name().to_string(),
        error: e.to_string(),
    })
}

/// Runs `scenario` on every backend in `backends` with the same
/// configuration and checks that all logical outcomes agree with the
/// first backend's.
///
/// # Errors
///
/// Returns [`MatrixError::ScenarioFailed`] if any run errors, or
/// [`MatrixError::Diverged`] if the observations differ.
pub fn run_matrix(
    scenario: &impl Scenario,
    backends: &[Backend],
    config: RuntimeConfig,
) -> Result<Vec<MatrixOutcome>, MatrixError> {
    run_matrix_with(scenario, backends, |_| config.clone())
}

/// [`run_matrix`] with a per-backend configuration factory. Needed when
/// the config carries backend-unshareable resources — a durable storage
/// directory, say, where store ids repeat across backends and two
/// runtimes writing one WAL tree would corrupt each other.
///
/// # Errors
///
/// Returns [`MatrixError::ScenarioFailed`] if any run errors, or
/// [`MatrixError::Diverged`] if the observations differ.
pub fn run_matrix_with(
    scenario: &impl Scenario,
    backends: &[Backend],
    config_for: impl Fn(Backend) -> RuntimeConfig,
) -> Result<Vec<MatrixOutcome>, MatrixError> {
    let mut outcomes: Vec<MatrixOutcome> = Vec::with_capacity(backends.len());
    for &backend in backends {
        let observations = run_on(scenario, backend, config_for(backend))?;
        if let Some(reference) = outcomes.first() {
            if reference.observations != observations {
                return Err(MatrixError::Diverged {
                    scenario: scenario.name().to_string(),
                    reference: reference.backend,
                    divergent: backend,
                    expected: reference.observations.clone(),
                    actual: observations,
                });
            }
        }
        outcomes.push(MatrixOutcome {
            backend,
            observations,
        });
    }
    Ok(outcomes)
}

/// Fault-injection scenarios: the matrix exercising failure, not just
/// happy paths.
///
/// Each scenario kills, restarts, adds, or removes replicas mid-workload
/// through the trait-level lifecycle operations, then asserts the
/// client-visible outcomes — which [`run_matrix`] requires to be
/// identical on the simulator, real sockets, and the sharded runtime.
pub mod fault {
    use std::collections::HashMap;
    use std::time::Duration;

    use globe_coherence::{ObjectModel, StoreClass, StoreId, WriteId};

    use super::{Observations, Scenario};
    use crate::{registers, BindOptions, GlobeRuntime, ObjectSpec, RegisterDoc, ReplicationPolicy};

    /// Polls `read` until it yields `want` (settling between attempts)
    /// or a generous retry budget runs out; returns the final value.
    fn converge<R: GlobeRuntime>(
        rt: &mut R,
        client: crate::ClientHandle,
        page: &str,
        want: &[u8],
    ) -> Result<Vec<u8>, Box<dyn std::error::Error>> {
        let mut latest = Vec::new();
        for _ in 0..50 {
            latest = rt.handle(client).read(registers::get(page))?.to_vec();
            if latest == want {
                break;
            }
            rt.settle(Duration::from_millis(100));
        }
        Ok(latest)
    }

    /// Kill a mirror mid-workload, recover it through the state-transfer
    /// protocol, and require that (a) pre-failure writes are readable
    /// from the recovered replica — the transfer preserved the state and
    /// coherence history — and (b) post-failure writes keep flowing
    /// to it.
    pub struct KillRestart;

    impl Scenario for KillRestart {
        fn name(&self) -> &'static str {
            "fault-kill-restart"
        }

        fn run<R: GlobeRuntime>(
            &self,
            rt: &mut R,
        ) -> Result<Observations, Box<dyn std::error::Error>> {
            let server = rt.add_node()?;
            let mirror = rt.add_node()?;
            let writer_node = rt.add_node()?;
            let reader_node = rt.add_node()?;

            let policy = ReplicationPolicy::builder(ObjectModel::Fifo)
                .immediate()
                .build()?;
            let object = ObjectSpec::new("/fault/kill-restart")
                .policy(policy)
                .semantics(RegisterDoc::new)
                .store(server, StoreClass::Permanent)
                .store(mirror, StoreClass::ObjectInitiated)
                .create(rt)?;
            let writer = rt.bind(object, writer_node, BindOptions::new().read_node(server))?;
            let reader = rt.bind(object, reader_node, BindOptions::new().read_node(mirror))?;
            rt.start(&[writer_node, reader_node]);

            for i in 0..5 {
                rt.handle(writer).write(registers::put(
                    &format!("k{i}"),
                    format!("pre-{i}").as_bytes(),
                ))?;
            }
            let mut obs = Observations::new();
            let seen = converge(rt, reader, "k4", b"pre-4")?;
            assert_eq!(&seen[..], b"pre-4", "mirror must converge before the fault");
            obs.record("pre-fail", &seen);

            // Kill the mirror (its in-memory state is gone) and recover
            // it from the home store's state transfer.
            rt.restart_store(object, mirror, Box::new(RegisterDoc::new()))?;

            // A write from *before* the failure, served by the recovered
            // replica: indistinguishable from a read before the failure.
            let old = converge(rt, reader, "k0", b"pre-0")?;
            assert_eq!(
                &old[..],
                b"pre-0",
                "state transfer must restore pre-failure writes"
            );
            obs.record("post-recover-old", &old);

            // And the recovered replica keeps receiving new writes.
            rt.handle(writer)
                .write(registers::put("k9", b"post-recover"))?;
            let new = converge(rt, reader, "k9", b"post-recover")?;
            assert_eq!(
                &new[..],
                b"post-recover",
                "recovered mirror must rejoin propagation"
            );
            obs.record("post-recover-new", &new);

            let members = rt.membership(object)?;
            assert!(members.all_alive());
            obs.record("member-count", members.members.len().to_string());

            // The recorded history still satisfies the object's model.
            let history = rt.history();
            let history = history.lock();
            globe_coherence::check::check_fifo(&history)?;
            drop(history);

            rt.shutdown();
            Ok(obs)
        }
    }

    /// Kill the home (sequencer) store mid-workload and require that the
    /// fault story completes: a surviving permanent store is elected the
    /// new sequencer and accepts writes, the old home rejoins its own
    /// object as an ordinary replica, a later *graceful* removal of the
    /// elected home hands the sequencer back, and the history recorded
    /// at every replica is a prefix-consistent continuation of its
    /// pre-failure history.
    pub struct HomeFailover;

    impl HomeFailover {
        /// Per-store snapshot of the recorded apply history.
        fn applies_by_store<R: GlobeRuntime>(rt: &R) -> HashMap<StoreId, Vec<WriteId>> {
            let history = rt.history();
            let history = history.lock();
            let mut by_store: HashMap<StoreId, Vec<WriteId>> = HashMap::new();
            for apply in history.applies() {
                by_store.entry(apply.store).or_default().push(apply.wid);
            }
            by_store
        }

        /// Asserts that `post` continues `pre` for every store: the
        /// pre-failure records survive verbatim as a prefix, and no
        /// store ever replays or reorders the single writer's sequence.
        fn assert_prefix_consistent(
            pre: &HashMap<StoreId, Vec<WriteId>>,
            post: &HashMap<StoreId, Vec<WriteId>>,
        ) {
            for (store, pre_applies) in pre {
                #[expect(
                    clippy::expect_used,
                    reason = "harness assertion: a vanished store history is the invariant \
                              violation this matrix exists to catch"
                )]
                let post_applies = post.get(store).expect("store history must never vanish");
                assert!(
                    post_applies.len() >= pre_applies.len()
                        && post_applies[..pre_applies.len()] == pre_applies[..],
                    "store {store}: pre-failover history must survive as an untouched prefix"
                );
            }
            for (store, applies) in post {
                let mut last = 0;
                for wid in applies {
                    assert!(
                        wid.seq > last,
                        "store {store}: apply {wid:?} replays or reorders across the fail-over"
                    );
                    last = wid.seq;
                }
            }
        }
    }

    impl Scenario for HomeFailover {
        fn name(&self) -> &'static str {
            "fault-home-failover"
        }

        fn run<R: GlobeRuntime>(
            &self,
            rt: &mut R,
        ) -> Result<Observations, Box<dyn std::error::Error>> {
            let home = rt.add_node()?;
            let standby = rt.add_node()?;
            let mirror = rt.add_node()?;
            let writer_node = rt.add_node()?;
            let reader_node = rt.add_node()?;

            let policy = ReplicationPolicy::builder(ObjectModel::Fifo)
                .immediate()
                .build()?;
            let object = ObjectSpec::new("/fault/home-failover")
                .policy(policy)
                .semantics(RegisterDoc::new)
                .store(home, StoreClass::Permanent)
                .store(standby, StoreClass::Permanent)
                .store(mirror, StoreClass::ObjectInitiated)
                .create(rt)?;
            // The writer reads from the standby so its own converge loops
            // survive the home's death; the reader watches the mirror.
            let writer = rt.bind(object, writer_node, BindOptions::new().read_node(standby))?;
            let reader = rt.bind(object, reader_node, BindOptions::new().read_node(mirror))?;
            rt.start(&[writer_node, reader_node]);

            for i in 0..5 {
                rt.handle(writer).write(registers::put(
                    &format!("k{i}"),
                    format!("pre-{i}").as_bytes(),
                ))?;
            }
            let mut obs = Observations::new();
            let seen = converge(rt, reader, "k4", b"pre-4")?;
            assert_eq!(&seen[..], b"pre-4", "mirror must converge before the fault");
            obs.record("pre-fail", &seen);
            let pre = Self::applies_by_store(rt);

            // Kill the home. The lowest-id surviving permanent store (the
            // standby) is elected sequencer; the old home rejoins its own
            // object as an ordinary permanent replica.
            rt.restart_store(object, home, Box::new(RegisterDoc::new()))?;
            let view = rt.membership(object)?;
            let new_home = view.members[0].clone();
            assert!(new_home.is_home);
            assert_eq!(
                new_home.node, standby,
                "the surviving permanent store must be elected"
            );
            // Node ids are allocation-ordered, hence identical across
            // backends: the elected node itself is a checkable outcome.
            obs.record("elected-home", new_home.node.to_string());

            // The elected sequencer accepts writes; they reach every
            // replica, including the recovered old home.
            rt.handle(writer)
                .write(registers::put("k5", b"post-failover"))?;
            let k5 = converge(rt, reader, "k5", b"post-failover")?;
            assert_eq!(
                &k5[..],
                b"post-failover",
                "the elected sequencer must accept and propagate writes"
            );
            obs.record("post-failover", &k5);

            let via_old_home = rt.bind(object, reader_node, BindOptions::new().read_node(home))?;
            let old0 = converge(rt, via_old_home, "k0", b"pre-0")?;
            assert_eq!(
                &old0[..],
                b"pre-0",
                "the rejoined old home must recover the pre-failure state"
            );
            let old5 = converge(rt, via_old_home, "k5", b"post-failover")?;
            assert_eq!(&old5[..], b"post-failover");
            obs.record("old-home-rejoined", &old0);

            // The graceful leg: retiring the *elected* home hands the
            // sequencer back via a SequencerHandoff carrying the log.
            rt.remove_store(object, standby)?;
            let view = rt.membership(object)?;
            assert!(view.members[0].is_home);
            assert_eq!(
                view.members[0].node, home,
                "graceful removal must hand the sequencer to the remaining permanent store"
            );
            rt.handle(writer)
                .write(registers::put("k6", b"post-handback"))?;
            let k6 = converge(rt, reader, "k6", b"post-handback")?;
            assert_eq!(&k6[..], b"post-handback");
            obs.record("post-handback", &k6);
            obs.record("final-members", view.members.len().to_string());

            // Every replica's recorded history is a prefix-consistent
            // continuation of its pre-failover history, and the whole
            // run still satisfies the object's coherence model.
            let post = Self::applies_by_store(rt);
            Self::assert_prefix_consistent(&pre, &post);
            let history = rt.history();
            let history = history.lock();
            globe_coherence::check::check_fifo(&history)?;
            drop(history);

            // The flight recorder, when enabled, must tell a coherent
            // story across the fail-over; with tracing off the snapshot
            // is empty and the checker passes trivially. The observation
            // is normalized to presence (0/1) because raw event counts
            // legitimately differ across backends.
            let snap = rt.trace();
            let violations = crate::trace::TraceChecker::check(&snap);
            assert!(violations.is_empty(), "trace violations: {violations:?}");
            obs.record("trace-captured", snap.len().min(1).to_string());

            rt.shutdown();
            Ok(obs)
        }
    }

    /// The unattended fail-over drill: partition the home (sequencer)
    /// store mid-workload — **no** `remove_store`/`restart_store` call —
    /// and require that the node-level failure detector confirms it
    /// down, the surviving permanent store self-elects and accepts
    /// writes, client sessions reroute on the unsolicited takeover
    /// announcement and resend the write issued after the partition,
    /// the deposed home rejoins as an ordinary replica
    /// when the partition heals, and every store's recorded history is
    /// a prefix-consistent continuation.
    ///
    /// Requires a [`crate::RuntimeConfig`] with a heartbeat period and
    /// `auto_failover(true)`; keep the period short (tens of
    /// milliseconds) so detection fits a test budget on the wall-clock
    /// backends.
    pub struct AutoFailover;

    impl Scenario for AutoFailover {
        fn name(&self) -> &'static str {
            "fault-auto-failover"
        }

        fn run<R: GlobeRuntime>(
            &self,
            rt: &mut R,
        ) -> Result<Observations, Box<dyn std::error::Error>> {
            let home = rt.add_node()?;
            let standby = rt.add_node()?;
            let mirror = rt.add_node()?;
            let writer_node = rt.add_node()?;
            let reader_node = rt.add_node()?;

            let policy = ReplicationPolicy::builder(ObjectModel::Fifo)
                .immediate()
                .build()?;
            let object = ObjectSpec::new("/fault/auto-failover")
                .policy(policy)
                .semantics(RegisterDoc::new)
                .store(home, StoreClass::Permanent)
                .store(standby, StoreClass::Permanent)
                .store(mirror, StoreClass::ObjectInitiated)
                .create(rt)?;
            // The writer reads through the standby: its reads teach the
            // future sequencer where the writer's sessions live, so the
            // takeover announcement reaches them.
            let writer = rt.bind(object, writer_node, BindOptions::new().read_node(standby))?;
            let reader = rt.bind(object, reader_node, BindOptions::new().read_node(mirror))?;
            rt.start(&[writer_node, reader_node]);

            for i in 0..5 {
                rt.handle(writer).write(registers::put(
                    &format!("k{i}"),
                    format!("pre-{i}").as_bytes(),
                ))?;
            }
            let mut obs = Observations::new();
            let seen = converge(rt, reader, "k4", b"pre-4")?;
            assert_eq!(&seen[..], b"pre-4", "mirror must converge before the fault");
            obs.record("pre-fail", &seen);
            let warm = converge(rt, writer, "k4", b"pre-4")?;
            assert_eq!(&warm[..], b"pre-4", "writer reads through the standby");
            let pre = HomeFailover::applies_by_store(rt);

            // Partition the home. Nobody calls a lifecycle operation:
            // the detector must confirm the silence and the standby
            // must elect itself.
            rt.partition_node(home, true)?;
            // A write into the dark, before anyone has noticed: the
            // session resends it when the successor's takeover
            // announcement reroutes it.
            let dark = rt
                .handle(writer)
                .issue_write(registers::put("k-dark", b"in-the-dark"))?;
            let mut elected = false;
            for _ in 0..200 {
                let view = rt.membership(object)?;
                if view.members[0].is_home && view.members[0].node == standby {
                    elected = true;
                    break;
                }
                rt.settle(Duration::from_millis(50));
            }
            assert!(
                elected,
                "the surviving permanent store must self-elect with no driver call"
            );
            obs.record(
                "elected-home",
                rt.membership(object)?.members[0].node.to_string(),
            );
            let mut acked = None;
            for _ in 0..200 {
                acked = rt.handle(writer).result(dark);
                if acked.is_some() {
                    break;
                }
                rt.settle(Duration::from_millis(50));
            }
            acked.ok_or("the write issued into the dark was never acknowledged")??;
            let seen = converge(rt, reader, "k-dark", b"in-the-dark")?;
            assert_eq!(
                &seen[..],
                b"in-the-dark",
                "the successor must accept the write resent on its announcement"
            );
            obs.record("dark-write", &seen);

            // The elected sequencer accepts writes: the writer's session
            // was rerouted by the takeover announcement, no rebind needed.
            rt.handle(writer)
                .write(registers::put("k5", b"post-auto"))?;
            let k5 = converge(rt, reader, "k5", b"post-auto")?;
            assert_eq!(
                &k5[..],
                b"post-auto",
                "the self-elected sequencer must accept and propagate writes"
            );
            obs.record("post-auto-failover", &k5);

            // Heal the partition: the deposed home hears the takeover
            // re-announcement, steps down, and converges on the elected
            // sequencer's log as an ordinary replica.
            rt.partition_node(home, false)?;
            let via_old_home = rt.bind(object, reader_node, BindOptions::new().read_node(home))?;
            let old0 = converge(rt, via_old_home, "k0", b"pre-0")?;
            assert_eq!(
                &old0[..],
                b"pre-0",
                "the rejoined old home must keep its pre-partition state"
            );
            let old5 = converge(rt, via_old_home, "k5", b"post-auto")?;
            assert_eq!(
                &old5[..],
                b"post-auto",
                "the rejoined old home must converge on the elected sequencer's log"
            );
            obs.record("old-home-rejoined", &old5);

            let view = rt.membership(object)?;
            assert!(view.members[0].is_home);
            assert_eq!(
                view.members[0].node, standby,
                "healing must not move the sequencer back"
            );
            obs.record("final-home", view.members[0].node.to_string());
            obs.record("final-members", view.members.len().to_string());

            // Every replica's recorded history is a prefix-consistent
            // continuation of its pre-partition history, and the whole
            // run still satisfies the object's coherence model.
            let post = HomeFailover::applies_by_store(rt);
            HomeFailover::assert_prefix_consistent(&pre, &post);
            let history = rt.history();
            let history = history.lock();
            globe_coherence::check::check_fifo(&history)?;
            drop(history);

            // The unattended drill is where the trace invariants earn
            // their keep: suspicion, election, takeover, and the first
            // post-takeover writes all land in the journal when tracing
            // is on, and the checker must find no incoherence in it.
            let snap = rt.trace();
            let violations = crate::trace::TraceChecker::check(&snap);
            assert!(violations.is_empty(), "trace violations: {violations:?}");
            obs.record("trace-captured", snap.len().min(1).to_string());

            rt.shutdown();
            Ok(obs)
        }
    }

    /// Add a mirror to a live object, read through it, then remove it
    /// gracefully while the workload continues.
    pub struct MirrorChurn;

    impl Scenario for MirrorChurn {
        fn name(&self) -> &'static str {
            "fault-mirror-churn"
        }

        fn run<R: GlobeRuntime>(
            &self,
            rt: &mut R,
        ) -> Result<Observations, Box<dyn std::error::Error>> {
            let server = rt.add_node()?;
            let mirror = rt.add_node()?;
            let client_node = rt.add_node()?;

            let policy = ReplicationPolicy::builder(ObjectModel::Fifo)
                .immediate()
                .build()?;
            let object = ObjectSpec::new("/fault/mirror-churn")
                .policy(policy)
                .semantics(RegisterDoc::new)
                .store(server, StoreClass::Permanent)
                .create(rt)?;
            let writer = rt.bind(object, client_node, BindOptions::new().read_node(server))?;
            rt.start(&[client_node]);

            for i in 0..3 {
                rt.handle(writer).write(registers::put(
                    &format!("k{i}"),
                    format!("pre-{i}").as_bytes(),
                ))?;
            }

            // Install a mirror on the live deployment; it catches up via
            // the join/state-transfer protocol.
            rt.add_store(
                object,
                mirror,
                StoreClass::ObjectInitiated,
                Box::new(RegisterDoc::new()),
            )?;
            let reader = rt.bind(object, client_node, BindOptions::new().read_node(mirror))?;
            let mut obs = Observations::new();
            let caught_up = converge(rt, reader, "k2", b"pre-2")?;
            assert_eq!(&caught_up[..], b"pre-2", "added mirror must catch up");
            obs.record("mirror-caught-up", &caught_up);
            obs.record(
                "members-with-mirror",
                rt.membership(object)?.members.len().to_string(),
            );

            // Retire it gracefully; the workload continues on the home.
            rt.remove_store(object, mirror)?;
            rt.handle(writer)
                .write(registers::put("k9", b"post-remove"))?;
            let after = converge(rt, writer, "k9", b"post-remove")?;
            assert_eq!(&after[..], b"post-remove");
            obs.record("post-remove", &after);
            obs.record(
                "members-after-remove",
                rt.membership(object)?.members.len().to_string(),
            );

            rt.shutdown();
            Ok(obs)
        }
    }
}
