//! The `GlobeRuntime` abstraction is real: one generic scenario body —
//! the paper's conference page in miniature — runs verbatim on the
//! deterministic simulator, on real TCP sockets, and on the in-process
//! sharded runtime, through the `matrix` harness that also asserts the
//! three backends report identical logical outcomes. Only construction
//! differs; every create/bind/invoke call goes through the trait.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test-only crate: clippy's in-tests exemptions cover #[test] bodies, not helpers"
)]

use std::time::Duration;

use globe_coherence::{ClientModel, StoreClass};
use globe_core::matrix::{self, Backend, Observations, Scenario};
use globe_core::{
    registers, BindOptions, GlobeRuntime, GlobeShard, GlobeSim, GlobeTcp, ObjectSpec, RegisterDoc,
    ReplicationPolicy, RuntimeConfig,
};
use globe_net::Topology;

/// The shared scenario: a Web master writes through the home store,
/// reads back through a cache under Read-Your-Writes, a reader
/// eventually sees the pushed page, and the recorded history passes the
/// PRAM and RYW checkers.
struct ConferencePage;

impl Scenario for ConferencePage {
    fn name(&self) -> &'static str {
        "conference-page"
    }

    fn run<R: GlobeRuntime>(&self, rt: &mut R) -> Result<Observations, Box<dyn std::error::Error>> {
        let server = rt.add_node()?;
        let cache = rt.add_node()?;
        let master_node = rt.add_node()?;
        let reader_node = rt.add_node()?;

        let mut policy = ReplicationPolicy::conference_page();
        policy.lazy_period = Duration::from_millis(300);
        let object = ObjectSpec::new("/conf/icdcs98")
            .policy(policy)
            .semantics(RegisterDoc::new)
            .store(server, StoreClass::Permanent)
            .store(cache, StoreClass::ClientInitiated)
            .create(rt)?;

        let master = rt.bind(
            object,
            master_node,
            BindOptions::new()
                .read_node(cache)
                .guard(ClientModel::ReadYourWrites),
        )?;
        let reader = rt.bind(object, reader_node, BindOptions::new().read_node(cache))?;

        rt.start(&[master_node, reader_node]);

        // RYW through a cache that has not been pushed yet — written via
        // the asynchronous issue/poll split, whose polling contract
        // promises progress on every runtime.
        let req = rt
            .handle(master)
            .issue_write(registers::put("program.html", b"TBA"))?;
        let ack = loop {
            if let Some(result) = rt.handle(master).result(req) {
                break result;
            }
        };
        ack?;
        let mut obs = Observations::new();
        let seen = rt.handle(master).read(registers::get("program.html"))?;
        assert_eq!(&seen[..], b"TBA", "read-your-writes");
        obs.record("master-ryw-read", &seen);

        // The reader converges once the periodic push lands.
        let mut latest = Vec::new();
        for _ in 0..40 {
            latest = rt
                .handle(reader)
                .read(registers::get("program.html"))?
                .to_vec();
            if latest == b"TBA" {
                break;
            }
            rt.settle(Duration::from_millis(100));
        }
        assert_eq!(&latest[..], b"TBA", "push must reach the reader's cache");
        obs.record("reader-converged", &latest);

        // The same checkers pass on the same recorded history type.
        let history = rt.history();
        let history = history.lock();
        globe_coherence::check::check_pram(&history)?;
        globe_coherence::check::check_read_your_writes(&history, master.client)?;
        drop(history);

        rt.shutdown();
        Ok(obs)
    }
}

#[test]
fn conference_matrix_spans_sim_tcp_and_shard() {
    let config = RuntimeConfig::new()
        .seed(42)
        .call_timeout(Duration::from_secs(10));
    let outcomes = matrix::run_matrix(&ConferencePage, &Backend::ALL, config)
        .expect("identical logical outcomes on every backend");
    assert_eq!(outcomes.len(), 3);
    for outcome in &outcomes {
        assert_eq!(
            outcome.observations.items().len(),
            2,
            "{}: both observations recorded",
            outcome.backend
        );
    }
}

/// The fault matrix: kill a replica mid-workload, recover it through
/// the state-transfer protocol, and require identical logical outcomes
/// on the simulator, real sockets, and the sharded runtime.
#[test]
fn kill_restart_matrix_spans_sim_tcp_and_shard() {
    let config = RuntimeConfig::new()
        .seed(42)
        .call_timeout(Duration::from_secs(10));
    let outcomes = matrix::run_matrix(&matrix::fault::KillRestart, &Backend::ALL, config)
        .expect("identical kill-and-recover outcomes on every backend");
    assert_eq!(outcomes.len(), 3);
    for outcome in &outcomes {
        assert_eq!(
            outcome.observations.items().len(),
            4,
            "{}: all fault observations recorded",
            outcome.backend
        );
    }
}

/// The tentpole fault scenario: kill the home (sequencer) store, let a
/// surviving permanent store win the deterministic election and accept
/// writes, rejoin the old home, then hand the sequencer back with a
/// graceful removal — with identical logical outcomes everywhere and a
/// prefix-consistent history on every replica.
#[test]
fn home_failover_matrix_spans_sim_tcp_and_shard() {
    let config = RuntimeConfig::new()
        .seed(42)
        .call_timeout(Duration::from_secs(10));
    let outcomes = matrix::run_matrix(&matrix::fault::HomeFailover, &Backend::ALL, config)
        .expect("identical fail-over outcomes on every backend");
    assert_eq!(outcomes.len(), 3);
    for outcome in &outcomes {
        assert_eq!(
            outcome.observations.items().len(),
            7,
            "{}: all fail-over observations recorded",
            outcome.backend
        );
    }
}

/// The unattended fail-over drill, identical on every backend: with
/// the detector and `auto_failover` on, partitioning the home yields a
/// self-elected sequencer that accepts writes with **no** lifecycle
/// call, sessions reroute on the unsolicited takeover announcement,
/// and the deposed home rejoins as an ordinary replica when healed.
#[test]
fn auto_failover_matrix_spans_sim_tcp_and_shard() {
    let config = RuntimeConfig::new()
        .seed(42)
        .call_timeout(Duration::from_secs(20))
        .heartbeat_period(Duration::from_millis(60))
        .suspect_after_misses(2)
        .auto_failover(true)
        .failover_confirm_periods(1);
    let outcomes = matrix::run_matrix(&matrix::fault::AutoFailover, &Backend::ALL, config)
        .expect("identical unattended fail-over outcomes on every backend");
    assert_eq!(outcomes.len(), 3);
    for outcome in &outcomes {
        assert_eq!(
            outcome.observations.items().len(),
            8,
            "{}: all auto-fail-over observations recorded",
            outcome.backend
        );
    }
}

/// The same fail-over drill with group commit enabled: every write
/// rides a sequencer batch (window-flushed), the handoff and election
/// paths must preserve the batched log, and the three backends must
/// still agree observation-for-observation.
#[test]
fn home_failover_matrix_with_batching() {
    let config = RuntimeConfig::new()
        .seed(42)
        .call_timeout(Duration::from_secs(10))
        .batch_max(4)
        .batch_window(Duration::from_millis(10))
        .trace_capacity(4096);
    let outcomes = matrix::run_matrix(&matrix::fault::HomeFailover, &Backend::ALL, config)
        .expect("identical batched fail-over outcomes on every backend");
    assert_eq!(outcomes.len(), 3);
    assert_trace_captured(&outcomes);
}

/// With the flight recorder on, every backend must come back with a
/// non-empty, checker-clean trace: the scenario body records a
/// normalized `trace-captured = 1` observation only when `rt.trace()`
/// returned events, and runs `TraceChecker` on the snapshot itself.
fn assert_trace_captured(outcomes: &[matrix::MatrixOutcome]) {
    for outcome in outcomes {
        let (_, captured) = outcome
            .observations
            .items()
            .iter()
            .find(|(label, _)| label == "trace-captured")
            .expect("fault scenarios record whether the trace was captured");
        assert_eq!(
            captured, b"1",
            "{}: trace-enabled run must capture protocol events",
            outcome.backend
        );
    }
}

/// Unattended fail-over with group commit enabled: the detector fires
/// while the sequencer is accumulating batches, and the self-elected
/// standby must carry on without losing an acknowledged write.
#[test]
fn auto_failover_matrix_with_batching() {
    let config = RuntimeConfig::new()
        .seed(42)
        .call_timeout(Duration::from_secs(20))
        .heartbeat_period(Duration::from_millis(60))
        .suspect_after_misses(2)
        .auto_failover(true)
        .failover_confirm_periods(1)
        .batch_max(4)
        .batch_window(Duration::from_millis(10))
        .trace_capacity(4096);
    let outcomes = matrix::run_matrix(&matrix::fault::AutoFailover, &Backend::ALL, config)
        .expect("identical batched unattended fail-over outcomes on every backend");
    assert_eq!(outcomes.len(), 3);
    assert_trace_captured(&outcomes);
}

/// The partial-batch fault: writes are *staged but unflushed* at the
/// sequencer when it dies, and again when the elected sequencer is
/// gracefully retired. Unacknowledged writes must never be lost — the
/// session retransmits them to whichever store holds the sequencer
/// next — and no write may be acknowledged unless it survives.
///
/// The object is PRAM, not FIFO, because "every acknowledged write is
/// readable" is not a promise FIFO makes here. Neither model orders
/// writes globally, so a non-home store accepts client writes itself.
/// When a staged write first reaches the home *after* `restart_store`
/// installed the fresh replica (a race the TCP leg keeps; seen in a
/// trace of a failing run as `seq 4` arriving before the retransmitted
/// `seq 2` and `seq 3`), a FIFO replica applies it and fans it out, and
/// the retransmissions are then stale — acknowledged and ignored, which
/// is FIFO's definition of a write outrun by a later one from the same
/// client. PRAM buffers the later write until its predecessors arrive,
/// so all five are applied.
struct PartialBatchFailover;

impl Scenario for PartialBatchFailover {
    fn name(&self) -> &'static str {
        "fault-partial-batch-failover"
    }

    fn run<R: GlobeRuntime>(&self, rt: &mut R) -> Result<Observations, Box<dyn std::error::Error>> {
        let home = rt.add_node()?;
        let standby = rt.add_node()?;
        let writer_node = rt.add_node()?;

        let policy = globe_core::ReplicationPolicy::builder(globe_coherence::ObjectModel::Pram)
            .immediate()
            .build()?;
        let object = ObjectSpec::new("/fault/partial-batch")
            .policy(policy)
            .semantics(RegisterDoc::new)
            .store(home, StoreClass::Permanent)
            .store(standby, StoreClass::Permanent)
            .create(rt)?;
        let writer = rt.bind(object, writer_node, BindOptions::new().read_node(standby))?;
        rt.start(&[writer_node]);

        // Warm the session (the standby learns where it lives, so the
        // takeover announcement can reroute it later).
        rt.handle(writer).write(registers::put("warm", b"w"))?;
        let warm = rt.handle(writer).read(registers::get("warm"))?;
        assert_eq!(&warm[..], b"w");

        // Stage three writes into the sequencer's open batch — the
        // window is far longer than the time to the kill below, so they
        // are in flight (unflushed, unacknowledged) when the home dies.
        let reqs = [
            rt.handle(writer).issue_write(registers::put("k0", b"v0"))?,
            rt.handle(writer).issue_write(registers::put("k1", b"v1"))?,
            rt.handle(writer).issue_write(registers::put("k2", b"v2"))?,
        ];
        rt.restart_store(object, home, Box::new(RegisterDoc::new()))?;

        // Every staged write must still complete: the session retries
        // it against the elected sequencer (the standby).
        for req in reqs {
            let ack = loop {
                if let Some(result) = rt.handle(writer).result(req) {
                    break result;
                }
                rt.settle(Duration::from_millis(20));
            };
            ack?;
        }
        let view = rt.membership(object)?;
        let mut obs = Observations::new();
        assert!(view.members[0].is_home);
        assert_eq!(view.members[0].node, standby, "the standby must be elected");
        obs.record("elected-home", view.members[0].node.to_string());

        // The graceful leg: stage writes at the *elected* sequencer and
        // retire it mid-batch. Demotion drops the pending batch without
        // acknowledging; the handback must re-admit the retried writes.
        let reqs = [
            rt.handle(writer).issue_write(registers::put("k3", b"v3"))?,
            rt.handle(writer).issue_write(registers::put("k4", b"v4"))?,
        ];
        rt.remove_store(object, standby)?;
        for req in reqs {
            let ack = loop {
                if let Some(result) = rt.handle(writer).result(req) {
                    break result;
                }
                rt.settle(Duration::from_millis(20));
            };
            ack?;
        }
        let view = rt.membership(object)?;
        assert!(view.members[0].is_home);
        assert_eq!(
            view.members[0].node, home,
            "the handback must reach the home"
        );
        obs.record("post-handback-home", view.members[0].node.to_string());

        // Every acknowledged write is durable and readable.
        let reader = rt.bind(object, writer_node, BindOptions::new().read_node(home))?;
        for (page, want) in [
            ("k0", b"v0" as &[u8]),
            ("k1", b"v1"),
            ("k2", b"v2"),
            ("k3", b"v3"),
            ("k4", b"v4"),
        ] {
            let mut latest = Vec::new();
            for _ in 0..50 {
                latest = rt.handle(reader).read(registers::get(page))?.to_vec();
                if latest == want {
                    break;
                }
                rt.settle(Duration::from_millis(100));
            }
            assert_eq!(
                &latest[..],
                want,
                "acked write {page} must survive the faults"
            );
            obs.record(page, &latest);
        }

        // The single writer's sequence is never replayed or reordered.
        let history = rt.history();
        let history = history.lock();
        globe_coherence::check::check_pram(&history)?;
        drop(history);

        // Partial batches are exactly where an ack could sneak out
        // before its apply; the flight recorder must never see one.
        let snap = rt.trace();
        let violations = globe_core::TraceChecker::check(&snap);
        assert!(violations.is_empty(), "trace violations: {violations:?}");
        obs.record("trace-captured", snap.len().min(1).to_string());

        rt.shutdown();
        Ok(obs)
    }
}

/// The partial-batch drill must agree on all three backends: a batch
/// window much longer than the fault gap guarantees the staged writes
/// are unflushed when the sequencer goes down.
#[test]
fn partial_batch_failover_matrix_spans_sim_tcp_and_shard() {
    let config = RuntimeConfig::new()
        .seed(42)
        .call_timeout(Duration::from_secs(10))
        .batch_max(8)
        .batch_window(Duration::from_millis(150))
        .trace_capacity(4096);
    let outcomes = matrix::run_matrix(&PartialBatchFailover, &Backend::ALL, config)
        .expect("identical partial-batch outcomes on every backend");
    assert_eq!(outcomes.len(), 3);
    assert_trace_captured(&outcomes);
}

/// Live membership churn (add a mirror, read through it, remove it)
/// behaves identically everywhere — including on TCP after `start()`,
/// where the operations ride the control plane.
#[test]
fn mirror_churn_matrix_spans_sim_tcp_and_shard() {
    let config = RuntimeConfig::new()
        .seed(7)
        .call_timeout(Duration::from_secs(10));
    let outcomes = matrix::run_matrix(&matrix::fault::MirrorChurn, &Backend::ALL, config)
        .expect("identical churn outcomes on every backend");
    assert_eq!(outcomes.len(), 3);
}

/// Builds a per-backend durable config factory: each backend gets its
/// own WAL tree (store ids repeat across backends, so a shared tree
/// would corrupt), rooted in temp dirs that vanish when `dirs` drops.
fn durable_config_for(
    dirs: &[(Backend, globe_core::TempDir)],
    base: RuntimeConfig,
) -> impl Fn(Backend) -> RuntimeConfig + '_ {
    move |backend| {
        let dir = dirs
            .iter()
            .find(|(b, _)| *b == backend)
            .map(|(_, d)| d.path())
            .expect("a temp dir per backend");
        base.clone().durable_dir(dir)
    }
}

fn durable_dirs(prefix: &str) -> Vec<(Backend, globe_core::TempDir)> {
    Backend::ALL
        .iter()
        .map(|&b| (b, globe_core::TempDir::new(&format!("{prefix}_{b}"))))
        .collect()
}

/// The kill-restart drill with the durable WAL backend on: the killed
/// mirror must come back from its local log (not a blank slate) and
/// the matrix must still agree on every backend.
#[test]
fn kill_restart_matrix_with_durable_storage() {
    let dirs = durable_dirs("kill_restart");
    let base = RuntimeConfig::new()
        .seed(42)
        .call_timeout(Duration::from_secs(10))
        .checkpoint_every(4)
        .trace_capacity(4096);
    let outcomes = matrix::run_matrix_with(
        &matrix::fault::KillRestart,
        &Backend::ALL,
        durable_config_for(&dirs, base),
    )
    .expect("identical durable kill-and-recover outcomes on every backend");
    assert_eq!(outcomes.len(), 3);
    for outcome in &outcomes {
        assert_eq!(
            outcome.observations.items().len(),
            4,
            "{}: all fault observations recorded",
            outcome.backend
        );
    }
}

/// The home fail-over drill with the durable WAL backend on: election,
/// rejoin, and handback must all survive checkpointing + compaction
/// running underneath, identically on every backend.
#[test]
fn home_failover_matrix_with_durable_storage() {
    let dirs = durable_dirs("home_failover");
    let base = RuntimeConfig::new()
        .seed(42)
        .call_timeout(Duration::from_secs(10))
        .checkpoint_every(4)
        .trace_capacity(4096);
    let outcomes = matrix::run_matrix_with(
        &matrix::fault::HomeFailover,
        &Backend::ALL,
        durable_config_for(&dirs, base),
    )
    .expect("identical durable fail-over outcomes on every backend");
    assert_eq!(outcomes.len(), 3);
    assert_trace_captured(&outcomes);
}

/// The home fail-over drill with every optional mechanism on at once —
/// group commit, read leases, the durable WAL with checkpoints — and
/// the flight recorder watching: the scenario body runs `TraceChecker`
/// on each backend's journal, so an ack before its apply, a gap in a
/// sequencer tenure or a lease-served read after a revoke fails here.
#[test]
fn home_failover_matrix_with_batching_and_leases() {
    let dirs = durable_dirs("home_failover_leased");
    let base = RuntimeConfig::new()
        .seed(42)
        .call_timeout(Duration::from_secs(10))
        .batch_max(4)
        .batch_window(Duration::from_millis(10))
        .read_leases(true)
        .lease_duration(Duration::from_secs(2))
        .checkpoint_every(4)
        .trace_capacity(8192);
    let outcomes = matrix::run_matrix_with(
        &matrix::fault::HomeFailover,
        &Backend::ALL,
        durable_config_for(&dirs, base),
    )
    .expect("identical batched and leased fail-over outcomes on every backend");
    assert_eq!(outcomes.len(), 3);
    assert_trace_captured(&outcomes);
}

/// The incremental-recovery proof: a durable mirror is killed after the
/// workload has been checkpointed, recovers its state from its own WAL,
/// and rejoins by shipping its version vector — so the home sends a
/// chunked *delta* (the log suffix it missed), never the full state.
/// The trace must show the delta install, and the checker must confirm
/// no write was applied below the recovered checkpoint.
struct DurableSuffixRecovery;

impl Scenario for DurableSuffixRecovery {
    fn name(&self) -> &'static str {
        "fault-durable-suffix-recovery"
    }

    fn run<R: GlobeRuntime>(&self, rt: &mut R) -> Result<Observations, Box<dyn std::error::Error>> {
        let server = rt.add_node()?;
        let mirror = rt.add_node()?;
        let client_node = rt.add_node()?;

        let policy = globe_core::ReplicationPolicy::builder(globe_coherence::ObjectModel::Fifo)
            .immediate()
            .build()?;
        let object = ObjectSpec::new("/fault/durable-suffix")
            .policy(policy)
            .semantics(RegisterDoc::new)
            .store(server, StoreClass::Permanent)
            .store(mirror, StoreClass::Permanent)
            .create(rt)?;
        let writer = rt.bind(object, client_node, BindOptions::new().read_node(server))?;
        let reader = rt.bind(object, client_node, BindOptions::new().read_node(mirror))?;
        rt.start(&[client_node]);

        // Enough writes to cross several checkpoint boundaries, so the
        // mirror's WAL holds a checkpoint + suffix when it dies.
        for i in 0..12 {
            rt.handle(writer).write(registers::put(
                &format!("k{i}"),
                format!("pre-{i}").as_bytes(),
            ))?;
        }
        let mut obs = Observations::new();
        let mut seen = Vec::new();
        for _ in 0..50 {
            seen = rt.handle(reader).read(registers::get("k11"))?.to_vec();
            if seen == b"pre-11" {
                break;
            }
            rt.settle(Duration::from_millis(100));
        }
        assert_eq!(&seen[..], b"pre-11", "mirror converges before the fault");
        obs.record("pre-fail", &seen);

        // Kill the mirror. Its semantics object is replaced with a
        // blank one — everything it knows after this line came from
        // its local WAL or from the join reply.
        rt.restart_store(object, mirror, Box::new(RegisterDoc::new()))?;

        // Pre-failure writes are readable again (recovered locally or
        // shipped in the delta), and new writes keep flowing.
        let mut old = Vec::new();
        for _ in 0..50 {
            old = rt.handle(reader).read(registers::get("k0"))?.to_vec();
            if old == b"pre-0" {
                break;
            }
            rt.settle(Duration::from_millis(100));
        }
        assert_eq!(&old[..], b"pre-0", "WAL recovery restores old writes");
        obs.record("post-recover-old", &old);
        rt.handle(writer)
            .write(registers::put("k99", b"post-recover"))?;
        let mut fresh = Vec::new();
        for _ in 0..50 {
            fresh = rt.handle(reader).read(registers::get("k99"))?.to_vec();
            if fresh == b"post-recover" {
                break;
            }
            rt.settle(Duration::from_millis(100));
        }
        assert_eq!(&fresh[..], b"post-recover");
        obs.record("post-recover-new", &fresh);

        // The trace must show the incremental path: the rejoining
        // mirror announced a non-empty vector, so the home shipped a
        // delta, and the mirror installed it. A full `StateTransfer`
        // to a *recovering* store would be a regression (the initial
        // joins at create() legitimately use the full path).
        let snap = rt.trace();
        let delta_installs = snap
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.event,
                    globe_core::ProtocolEvent::DeltaTransferInstalled { .. }
                )
            })
            .count();
        assert!(
            delta_installs > 0,
            "recovery must ride the delta path, not full state transfer"
        );
        obs.record("delta-recovery", delta_installs.min(1).to_string());
        let ckpt_installs = snap
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.event,
                    globe_core::ProtocolEvent::CheckpointInstalled { .. }
                )
            })
            .count();
        assert!(
            ckpt_installs > 0,
            "the restarted store must recover a checkpoint from its WAL"
        );
        obs.record("wal-checkpoint-recovered", ckpt_installs.min(1).to_string());

        // No write below the recovered checkpoint is ever re-applied.
        let violations = globe_core::TraceChecker::check(&snap);
        assert!(violations.is_empty(), "trace violations: {violations:?}");
        obs.record("trace-captured", snap.len().min(1).to_string());

        let history = rt.history();
        let history = history.lock();
        globe_coherence::check::check_fifo(&history)?;
        drop(history);

        rt.shutdown();
        Ok(obs)
    }
}

/// The durable suffix-recovery drill must agree on all three backends:
/// WAL recovery + incremental delta join, proven by the flight
/// recorder on each.
#[test]
fn durable_suffix_recovery_matrix_spans_sim_tcp_and_shard() {
    let dirs = durable_dirs("suffix_recovery");
    let base = RuntimeConfig::new()
        .seed(42)
        .call_timeout(Duration::from_secs(10))
        .checkpoint_every(4)
        .trace_capacity(8192);
    let outcomes = matrix::run_matrix_with(
        &DurableSuffixRecovery,
        &Backend::ALL,
        durable_config_for(&dirs, base),
    )
    .expect("identical durable suffix-recovery outcomes on every backend");
    assert_eq!(outcomes.len(), 3);
    assert_trace_captured(&outcomes);
}

#[test]
fn runtimes_construct_symmetrically() {
    let config = RuntimeConfig::new().seed(7);
    let _sim = GlobeSim::with_config(Topology::lan(), config.clone());
    let tcp = GlobeTcp::with_config(config.clone());
    let shard = GlobeShard::with_config(config);
    assert_eq!(tcp.seed(), 7);
    assert_eq!(shard.seed(), 7);
    assert_eq!(shard.num_shards(), globe_core::DEFAULT_SHARDS);
}
