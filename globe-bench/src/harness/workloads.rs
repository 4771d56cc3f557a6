//! The five workloads. Each *repeat* builds a fresh runtime, deploys
//! one object, runs a fixed number of operations and checks the
//! outcome; a run is as many repeats as fit in `--seconds`.
//!
//! Operation counts are fixed per repeat, not durations: per-op cost
//! grows with history length (a 3-mirror simulated write costs ~6 µs at
//! 50 k ops and 11–13 µs at 400 k), so a time-boxed phase would compare
//! different amounts of work between a fast and a slow commit.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use globe_coherence::{ObjectModel, StoreClass};
use globe_core::{
    BindOptions, ClientHandle, GlobeRuntime, GlobeShard, GlobeSim, GlobeTcp, MethodKind,
    ObjectSpec, ProtocolEvent, ReplicationPolicy, RequestId, RuntimeConfig, TraceSnapshot,
};
use globe_naming::ObjectId;
use globe_net::{NodeId, Topology};
use globe_web::{methods, Page, WebSemantics};
use globe_workload::{staleness, Arrival};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::checks::{self, Evidence};
use super::gen::{
    self, closed_loop, open_loop, LoopOutcome, Op, Port, RuntimePort, SpanStats, Spanned, WallPort,
    PAGES, SPIN_PAUSE,
};
use super::proc::{self, ProcSnapshot};
use super::stats;

/// How much work one repeat does.
#[derive(Debug, Clone)]
pub struct Scale {
    /// `--tiny`: the self-test scale; percentile support is not asserted.
    pub tiny: bool,
    /// Closed-loop operations with 1 in flight (unloaded latency).
    pub lat_ops: usize,
    /// Closed-loop operations with 4 in flight (capacity).
    pub cap_ops: usize,
    /// Per simulator leg: wall-timed operations with 1 in flight.
    pub sim_lat_ops: usize,
    /// Per simulator leg: operations on the virtual-time schedule.
    pub sim_cap_ops: usize,
    /// The fault drill: scheduled operations, one every [`DRILL_GAP`].
    pub drill_ops: usize,
    /// When the drill isolates the home.
    pub partition_at: Duration,
    /// When the drill heals the partition.
    pub heal_at: Duration,
    /// Writes the drill's durable mirror misses before it is restarted.
    pub missed_writes: usize,
    /// Iterations of each isolated layer probe.
    pub probe_iters: usize,
}

impl Scale {
    /// The scale `BENCHMARK.json` runs at. A repeat takes 1.5–2.5 s, so
    /// a run holds five or more; the minority class of every mix still
    /// has ≥ 1000 lat-phase samples, which p99 needs.
    pub fn full() -> Scale {
        Scale {
            tiny: false,
            lat_ops: 20_000,
            cap_ops: 32_000,
            sim_lat_ops: 6_000,
            sim_cap_ops: 20_000,
            drill_ops: 3_600,
            partition_at: Duration::from_millis(700),
            heal_at: Duration::from_millis(1_400),
            missed_writes: 256,
            probe_iters: 20_000,
        }
    }

    /// The self-test scale: every code path, a few hundred operations.
    pub fn tiny() -> Scale {
        Scale {
            tiny: true,
            lat_ops: 300,
            cap_ops: 400,
            sim_lat_ops: 100,
            sim_cap_ops: 300,
            drill_ops: 1_800,
            partition_at: Duration::from_millis(200),
            heal_at: Duration::from_millis(600),
            missed_writes: 32,
            probe_iters: 300,
        }
    }
}

/// Where the client's reads are served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadAt {
    /// The first permanent mirror.
    Mirror,
    /// The client-initiated cache (simulator legs).
    Cache,
}

/// One object deployment and the traffic mix aimed at it.
#[derive(Debug, Clone)]
struct Shape {
    path: &'static str,
    policy: ReplicationPolicy,
    /// Permanent mirrors beside the home.
    mirrors: usize,
    read_at: ReadAt,
    read_permille: usize,
    body_bytes: usize,
}

pub(crate) fn immediate(model: ObjectModel) -> ReplicationPolicy {
    ReplicationPolicy::builder(model)
        .immediate()
        .build()
        .expect("every model accepts immediate push")
}

/// Wall time of each set-up step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Runtime construction through the last preload ack, seconds.
    pub total_s: f64,
    /// `create_object`, µs.
    pub create_object_us: f64,
    /// Mean of the `bind` calls, µs.
    pub bind_us: f64,
    /// `start`, ms.
    pub start_ms: f64,
    /// Preloading the 16 pages with blocking writes, ms.
    pub preload_ms: f64,
}

struct Deployment {
    object: ObjectId,
    home: NodeId,
    /// Mirrors in placement order (the first is the fail-over standby).
    mirrors: Vec<NodeId>,
    client: ClientHandle,
    /// One reader bound to each permanent store, home first.
    auditors: Vec<(NodeId, ClientHandle)>,
    setup: SetupTimes,
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl FnOnce(E) -> String {
    move |e| format!("{what}: {e}")
}

/// add nodes → create → bind → start → preload 16 pages: everything a
/// user pays before the first timed operation. `born` is when the
/// caller began constructing the runtime.
fn deploy<R: GlobeRuntime>(rt: &mut R, shape: &Shape, born: Instant) -> Result<Deployment, String> {
    let home = rt.add_node().map_err(err("add home node"))?;
    let mut mirrors = Vec::new();
    for _ in 0..shape.mirrors {
        mirrors.push(rt.add_node().map_err(err("add mirror node"))?);
    }
    let cache = match shape.read_at {
        ReadAt::Cache => Some(rt.add_node().map_err(err("add cache node"))?),
        ReadAt::Mirror => None,
    };
    let client_node = rt.add_node().map_err(err("add client node"))?;

    let mut spec = ObjectSpec::new(shape.path)
        .policy(shape.policy.clone())
        .semantics(WebSemantics::new)
        .store(home, StoreClass::Permanent);
    for &node in &mirrors {
        spec = spec.store(node, StoreClass::Permanent);
    }
    if let Some(node) = cache {
        spec = spec.store(node, StoreClass::ClientInitiated);
    }
    let t = Instant::now();
    let object = spec.create(rt).map_err(err("create object"))?;
    let create_object_us = t.elapsed().as_secs_f64() * 1e6;

    let read_node = cache.or(mirrors.first().copied()).unwrap_or(home);
    let t = Instant::now();
    let client = rt
        .bind(object, client_node, BindOptions::new().read_node(read_node))
        .map_err(err("bind client"))?;
    let mut auditors = Vec::new();
    for &node in std::iter::once(&home).chain(&mirrors) {
        let handle = rt
            .bind(object, client_node, BindOptions::new().read_node(node))
            .map_err(err("bind auditor"))?;
        auditors.push((node, handle));
    }
    let bind_us = t.elapsed().as_secs_f64() * 1e6 / (1 + auditors.len()) as f64;

    let t = Instant::now();
    rt.start(&[client_node]);
    let start_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    for page in 0..PAGES {
        let op = Op {
            is_read: false,
            page,
            seq: page as u64 + 1,
        };
        rt.write(&client, gen::invocation(&op, shape.body_bytes))
            .map_err(err("preload write"))?;
    }
    let preload_ms = t.elapsed().as_secs_f64() * 1e3;

    Ok(Deployment {
        object,
        home,
        mirrors,
        client,
        auditors,
        setup: SetupTimes {
            total_s: born.elapsed().as_secs_f64(),
            create_object_us,
            bind_us,
            start_ms,
            preload_ms,
        },
    })
}

/// Reads every permanent store's whole document through its auditor,
/// current home first, plus how many members claim to be home.
fn audit<R: GlobeRuntime>(
    rt: &mut R,
    dep: &Deployment,
) -> Result<(Vec<(String, Bytes)>, usize), String> {
    let view = rt.membership(dep.object).map_err(err("membership"))?;
    let homes = view.members.iter().filter(|m| m.is_home).count();
    let home_now = view
        .members
        .iter()
        .find(|m| m.is_home)
        .map_or(dep.home, |m| m.node);
    let mut documents = Vec::new();
    for &(node, handle) in &dep.auditors {
        let doc = rt
            .read(&handle, methods::get_document())
            .map_err(|e| format!("audit read at {node}: {e}"))?;
        let entry = (format!("store@{node}"), doc);
        if node == home_now {
            documents.insert(0, entry);
        } else {
            documents.push(entry);
        }
    }
    Ok((documents, homes))
}

/// Lets propagation finish: audits until every store returns the same
/// document, giving up (and returning the disagreeing set, which the
/// checks then reject) after `patience` of runtime time.
fn settle_and_audit<R: GlobeRuntime>(
    rt: &mut R,
    dep: &Deployment,
    step: Duration,
    patience: Duration,
) -> Result<(Vec<(String, Bytes)>, usize), String> {
    let mut waited = Duration::ZERO;
    loop {
        rt.settle(step);
        waited += step;
        let (documents, homes) = audit(rt, dep)?;
        let agree = documents.windows(2).all(|w| w[0].1 == w[1].1);
        if (agree && homes == 1) || waited >= patience {
            return Ok((documents, homes));
        }
    }
}

fn traffic<R: GlobeRuntime>(rt: &R) -> (u64, u64) {
    let metrics = rt.metrics();
    let m = metrics.lock();
    (m.total_messages(), m.total_bytes())
}

/// What the program's own recorder and counters said, in traced repeats.
#[derive(Debug, Clone, Default)]
pub struct TraceStats {
    /// Median order → apply at the sequencer, µs.
    pub order_to_apply_us: f64,
    /// Median apply → ack at the sequencer, µs.
    pub apply_to_ack_us: f64,
    /// Journal events per acknowledged write.
    pub events_per_write: f64,
    /// Events lost to ring eviction.
    pub dropped: u64,
}

/// Program counters read after a repeat.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Batch flushes per acknowledged write.
    pub flushes_per_write: f64,
    /// Mean writes per flushed batch.
    pub batch_occupancy: f64,
    /// Lease-served share of lease-eligible reads.
    pub lease_hit_ratio: f64,
    /// Sum of the transport-fault counters.
    pub transport_faults: u64,
    /// Latency samples the capped metrics ring overwrote.
    pub ops_dropped: u64,
}

/// Process-level cost of the capacity phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcCost {
    /// User CPU µs per completed op.
    pub cpu_user_us_per_op: f64,
    /// System CPU µs per completed op.
    pub cpu_sys_us_per_op: f64,
    /// Voluntary context switches per completed op.
    pub vol_ctx_per_op: f64,
    /// Involuntary context switches per completed op.
    pub invol_ctx_per_op: f64,
}

/// What the fault drill measured beyond latencies.
#[derive(Debug, Clone, Copy, Default)]
pub struct DrillStats {
    /// Home isolated → first ack of a write due after the isolation.
    pub outage_ms: f64,
    /// `restart_store` of a durable mirror → its document equals the
    /// home's again.
    pub recover_ms: f64,
    /// Bytes under the durable directory ÷ acknowledged page bytes.
    pub disk_amp: f64,
    /// Last write applied at the old home → first suspicion (traced).
    pub detect_ms: f64,
    /// Suspicion → takeover announcement (traced).
    pub elect_ms: f64,
    /// Takeover → first write applied by the successor (traced).
    pub first_write_ms: f64,
    /// Log entries shipped as incremental deltas (traced).
    pub delta_entries: f64,
    /// Full state transfers shipped (traced).
    pub full_transfers: f64,
}

/// Everything one repeat produced.
#[derive(Debug, Clone, Default)]
pub struct Repeat {
    /// Set-up step timings.
    pub setup: SetupTimes,
    /// The unloaded-latency phase (1 in flight; the whole open loop on
    /// the fault workload).
    pub lat: LoopOutcome,
    /// The capacity phase (4 in flight; the virtual-time schedule on
    /// the simulator; empty on the fault workload).
    pub cap: LoopOutcome,
    /// Completed ops per wall second of the capacity phase.
    pub ops_s: f64,
    /// Coherence messages over the timed phases.
    pub msgs: u64,
    /// Coherence payload bytes over the timed phases.
    pub bytes: u64,
    /// Share of reads that missed an already-issued write.
    pub stale_read_frac: f64,
    /// History entries recorded per completed op.
    pub history_entries_per_op: f64,
    /// Time the coherence checker took on this repeat's history, ms.
    pub check_ms: f64,
    /// Resident memory when the timed phases ended, MiB, where `/proc`
    /// exists.
    pub rss_mib: Option<f64>,
    /// Process cost of the capacity phase, where `/proc` exists.
    pub proc_cost: Option<ProcCost>,
    /// `(allocations, bytes)` per completed op of the capacity phase,
    /// where the counting allocator is installed and switched on.
    pub alloc_per_op: Option<(f64, f64)>,
    /// Program counters.
    pub counters: Counters,
    /// Client-plane call spans (traced repeats).
    pub spans: Option<SpanStats>,
    /// Flight-recorder digest (traced repeats).
    pub trace: Option<TraceStats>,
    /// Fault-drill figures (the fault workload).
    pub drill: Option<DrillStats>,
    /// Simulator legs: `(leg, wall µs per op)`.
    pub legs: Vec<(&'static str, f64)>,
}

impl Repeat {
    /// Completed operations over both timed phases.
    pub fn completed(&self) -> usize {
        self.lat.completed() + self.cap.completed()
    }
}

fn read_counters<R: GlobeRuntime>(rt: &R, writes_acked: usize) -> Counters {
    let metrics = rt.metrics();
    let m = metrics.lock();
    let t = m.transport;
    let finite = |x: f64| if x.is_finite() { x } else { 0.0 };
    Counters {
        flushes_per_write: finite(m.protocol.flushes() as f64 / writes_acked.max(1) as f64),
        batch_occupancy: finite(m.protocol.mean_batch_occupancy()),
        lease_hit_ratio: finite(m.protocol.lease_hit_ratio()),
        transport_faults: t.malformed_frames
            + t.send_errors
            + t.disconnects
            + t.rejected_frames
            + t.spawn_failures,
        ops_dropped: m.ops_dropped,
    }
}

fn median_us(durations: impl Iterator<Item = Duration>) -> f64 {
    let us: Vec<f64> = durations.map(|d| d.as_secs_f64() * 1e6).collect();
    stats::median(&us).unwrap_or(0.0)
}

/// Events of the journal's head that the per-write breakdown is joined
/// over: `write_breakdowns` rescans the journal for every write, so its
/// cost is quadratic; the head holds a few thousand writes, plenty for a
/// median.
const BREAKDOWN_EVENTS: usize = 20_000;

fn trace_stats(snap: &TraceSnapshot, writes_acked: usize) -> TraceStats {
    let head = TraceSnapshot {
        events: snap.events[..snap.events.len().min(BREAKDOWN_EVENTS)].to_vec(),
        ..TraceSnapshot::default()
    };
    let breakdowns = head.write_breakdowns();
    TraceStats {
        order_to_apply_us: median_us(breakdowns.iter().filter_map(|b| b.apply_delay())),
        apply_to_ack_us: median_us(breakdowns.iter().filter_map(|b| b.ack_delay())),
        events_per_write: snap.len() as f64 / writes_acked.max(1) as f64,
        dropped: snap.dropped,
    }
}

/// Per-node ring capacity of traced repeats: large enough that nothing
/// is evicted (`trace.dropped` must stay 0 for the checker to be sound).
const TRACE_RING: usize = 1 << 20;

fn base_config(seed: u64, traced: bool) -> RuntimeConfig {
    let config = RuntimeConfig::new().seed(seed).op_sample_capacity(4096);
    if traced {
        config.trace_capacity(TRACE_RING)
    } else {
        config
    }
}

/// Measures what the process spent between two snapshots, per op.
fn proc_cost(
    before: Option<ProcSnapshot>,
    after: Option<ProcSnapshot>,
    ops: usize,
) -> Option<ProcCost> {
    let (a, b) = (before?, after?);
    let per = ops.max(1) as f64;
    Some(ProcCost {
        cpu_user_us_per_op: (b.cpu_user_s - a.cpu_user_s) * 1e6 / per,
        cpu_sys_us_per_op: (b.cpu_sys_s - a.cpu_sys_s) * 1e6 / per,
        vol_ctx_per_op: b.vol_ctx.saturating_sub(a.vol_ctx) as f64 / per,
        invol_ctx_per_op: b.invol_ctx.saturating_sub(a.invol_ctx) as f64 / per,
    })
}

fn alloc_per_op(
    before: Option<(u64, u64)>,
    after: Option<(u64, u64)>,
    ops: usize,
) -> Option<(f64, f64)> {
    let (a, b) = (before?, after?);
    let per = ops.max(1) as f64;
    Some(((b.0 - a.0) as f64 / per, (b.1 - a.1) as f64 / per))
}

/// Runs the coherence and state checks and fills in the history-derived
/// figures.
fn verify<R: GlobeRuntime>(
    rt: &R,
    shape: &Shape,
    documents: &[(String, Bytes)],
    homes: usize,
    acked: &[u64; PAGES],
    trace: Option<&TraceSnapshot>,
    repeat: &mut Repeat,
) -> Result<(), String> {
    let history = rt.history();
    let history = history.lock();
    let t = Instant::now();
    checks::check(&Evidence {
        history: &history,
        model: shape.policy.model,
        documents,
        acked,
        body_bytes: shape.body_bytes,
        homes,
        trace,
    })?;
    repeat.check_ms = t.elapsed().as_secs_f64() * 1e3;
    repeat.stale_read_frac = staleness(&history).stale_fraction;
    repeat.history_entries_per_op = history.len() as f64 / repeat.completed().max(1) as f64;
    Ok(())
}

/// Per page, the highest write number acknowledged in any phase; the
/// preload wrote number `page + 1` to every page.
fn acked_overall(phases: &[&LoopOutcome]) -> [u64; PAGES] {
    std::array::from_fn(|page| {
        phases
            .iter()
            .map(|phase| phase.acked[page])
            .fold(page as u64 + 1, u64::max)
    })
}

/// The lat and cap phases on a backend with its own threads.
fn closed_phases<P: Port>(
    port: &mut P,
    shape: &Shape,
    scale: &Scale,
    seed: u64,
    repeat: &mut Repeat,
) {
    let lat_plan = gen::plan(seed, scale.lat_ops, shape.read_permille, PAGES as u64);
    let lat_writes = lat_plan.iter().filter(|op| !op.is_read).count() as u64;
    let cap_plan = gen::plan(
        seed ^ 0x9e37_79b9_7f4a_7c15,
        scale.cap_ops,
        shape.read_permille,
        PAGES as u64 + lat_writes,
    );
    repeat.lat = closed_loop(port, &lat_plan, shape.body_bytes, 1, SPIN_PAUSE);
    let (proc0, alloc0) = (proc::snapshot(), proc::alloc_totals());
    repeat.cap = closed_loop(port, &cap_plan, shape.body_bytes, 4, SPIN_PAUSE);
    let ops = repeat.cap.completed();
    repeat.proc_cost = proc_cost(proc0, proc::snapshot(), ops);
    repeat.alloc_per_op = alloc_per_op(alloc0, proc::alloc_totals(), ops);
    repeat.ops_s = ops as f64 / repeat.cap.elapsed.as_secs_f64().max(1e-9);
}

/// One repeat of a closed-loop workload on `GlobeShard` or `GlobeTcp`.
fn wall_repeat<R: GlobeRuntime>(
    make: impl FnOnce(RuntimeConfig) -> R,
    shape: &Shape,
    scale: &Scale,
    seed: u64,
    traced: bool,
) -> Result<Repeat, String> {
    let born = Instant::now();
    let mut rt = make(base_config(seed, traced));
    let dep = deploy(&mut rt, shape, born)?;
    let mut repeat = Repeat {
        setup: dep.setup,
        ..Repeat::default()
    };
    let port = rt.engine_port().ok_or("this backend has no engine port")?;
    let wall = WallPort {
        port,
        handle: dep.client,
    };
    let (msgs0, bytes0) = traffic(&rt);
    let mut port = Spanned::new(wall, traced);
    closed_phases(&mut port, shape, scale, seed, &mut repeat);
    repeat.spans = port.into_spans();
    repeat.rss_mib = proc::rss_mib();
    let (documents, homes) = settle_and_audit(
        &mut rt,
        &dep,
        Duration::from_millis(20),
        Duration::from_secs(5),
    )?;
    let (msgs1, bytes1) = traffic(&rt);
    repeat.msgs = msgs1 - msgs0;
    repeat.bytes = bytes1 - bytes0;

    let acked = acked_overall(&[&repeat.lat, &repeat.cap]);
    let writes_acked = repeat.lat.writes_acked + repeat.cap.writes_acked;
    repeat.counters = read_counters(&rt, writes_acked);
    let snap = traced.then(|| rt.trace());
    repeat.trace = snap.as_ref().map(|s| trace_stats(s, writes_acked));
    let verdict = verify(
        &rt,
        shape,
        &documents,
        homes,
        &acked,
        snap.as_ref(),
        &mut repeat,
    );
    rt.shutdown();
    verdict.map(|()| repeat)
}

/// The seven legs of `sim_policy_sweep`: the five object models with
/// immediate push, then the two lazy presets of the paper's examples.
fn sim_legs() -> Vec<(&'static str, ReplicationPolicy)> {
    vec![
        ("sequential", immediate(ObjectModel::Sequential)),
        ("pram", immediate(ObjectModel::Pram)),
        ("fifo", immediate(ObjectModel::Fifo)),
        ("causal", immediate(ObjectModel::Causal)),
        ("eventual", immediate(ObjectModel::Eventual)),
        ("conference", ReplicationPolicy::conference_page()),
        ("magazine", ReplicationPolicy::magazine()),
    ]
}

/// Offered rate of the simulator's Poisson schedule, in operations per
/// virtual second: the mean gap (1 ms) is a LAN round trip, so reads
/// race the propagation of recent writes and staleness is visible.
const SIM_RATE: f64 = 1_000.0;

/// Takes the results of the oldest pending calls; with `all`, whatever
/// has still not completed counts as undrained.
fn collect_sim(
    rt: &mut GlobeSim,
    handle: &ClientHandle,
    pending: &mut VecDeque<(RequestId, Op)>,
    out: &mut LoopOutcome,
    all: bool,
) {
    while let Some(&(req, op)) = pending.front() {
        match GlobeSim::result(rt, handle, req) {
            Some(Ok(_)) if op.is_read => out.reads_done += 1,
            Some(Ok(_)) => {
                out.writes_acked += 1;
                out.acked[op.page] = out.acked[op.page].max(op.seq);
            }
            Some(Err(_)) => out.failed += 1,
            None if all => out.undrained += 1,
            None => break,
        }
        pending.pop_front();
    }
}

/// Replays `ops` on a seeded Poisson schedule in virtual time. Wall
/// latency of an operation on a virtual-time schedule means nothing, so
/// the outcome's latency samples are the runtime's own virtual-time
/// `OpSample`s (the most recent 4096 it retains).
fn sim_schedule(
    rt: &mut GlobeSim,
    handle: ClientHandle,
    ops: &[Op],
    body_bytes: usize,
    seed: u64,
) -> LoopOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let arrival = Arrival::Poisson(SIM_RATE);
    let mut out = LoopOutcome::default();
    let mut pending: VecDeque<(RequestId, Op)> = VecDeque::new();
    let start = Instant::now();
    for &op in ops {
        rt.run_for(arrival.next_gap(&mut rng));
        out.attempted += 1;
        let inv = gen::invocation(&op, body_bytes);
        let issued = if op.is_read {
            GlobeSim::issue_read(rt, &handle, inv)
        } else {
            GlobeSim::issue_write(rt, &handle, inv)
        };
        match issued {
            Ok(req) => {
                pending.push_back((req, op));
                out.max_in_flight = out.max_in_flight.max(pending.len());
            }
            Err(_) => out.refused += 1,
        }
        collect_sim(rt, &handle, &mut pending, &mut out, false);
    }
    // Virtual time is free: give stragglers ten lazy periods.
    rt.run_for(Duration::from_secs(50));
    collect_sim(rt, &handle, &mut pending, &mut out, true);
    out.elapsed = start.elapsed();
    let metrics = GlobeSim::metrics(rt);
    for sample in &metrics.lock().ops {
        let us = sample.latency().as_secs_f64() * 1e6;
        match sample.kind {
            MethodKind::Read => out.read_us.push(us),
            MethodKind::Write => out.write_us.push(us),
        }
    }
    out
}

/// One repeat of `sim_policy_sweep`: all seven legs, pooled.
fn sim_repeat(scale: &Scale, seed: u64, traced: bool) -> Result<Repeat, String> {
    let mut total = Repeat::default();
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut stale_reads = 0.0;
    let mut reads = 0.0;
    let mut entries = 0.0;
    let mut spans = SpanStats::default();
    let mut traces: Vec<TraceStats> = Vec::new();
    let (proc0, alloc0) = (proc::snapshot(), proc::alloc_totals());
    let mut cap_wall = Duration::ZERO;
    for (leg, policy) in sim_legs() {
        let shape = Shape {
            path: "/bench/sim_policy_sweep",
            policy,
            mirrors: 3,
            read_at: ReadAt::Cache,
            read_permille: 800,
            body_bytes: 256,
        };
        let born = Instant::now();
        let mut rt = GlobeSim::with_config(Topology::lan(), base_config(seed, traced));
        let dep = deploy(&mut rt, &shape, born)?;
        setups.push(dep.setup);
        let (msgs0, bytes0) = traffic(&rt);

        let lat_plan = gen::plan(seed, scale.sim_lat_ops, shape.read_permille, PAGES as u64);
        let lat_writes = lat_plan.iter().filter(|op| !op.is_read).count() as u64;
        let mut port = Spanned::new(
            RuntimePort {
                rt: &mut rt,
                handle: dep.client,
            },
            traced,
        );
        let lat = closed_loop(&mut port, &lat_plan, shape.body_bytes, 1, Duration::ZERO);
        if let Some(s) = port.into_spans() {
            spans.issue_ns.extend(s.issue_ns);
            spans.poll_ns.extend(s.poll_ns);
            spans.hits += s.hits;
        }

        let cap_plan = gen::plan(
            seed ^ 0x9e37_79b9_7f4a_7c15,
            scale.sim_cap_ops,
            shape.read_permille,
            PAGES as u64 + lat_writes,
        );
        let cap = sim_schedule(&mut rt, dep.client, &cap_plan, shape.body_bytes, seed);
        cap_wall += cap.elapsed;
        total.rss_mib = proc::rss_mib();
        total.legs.push((
            leg,
            cap.elapsed.as_secs_f64() * 1e6 / cap.completed().max(1) as f64,
        ));

        rt.run_for(Duration::from_secs(10));
        let (documents, homes) = audit(&mut rt, &dep)?;
        rt.finalize_digests();
        let (msgs1, bytes1) = traffic(&rt);
        total.msgs += msgs1 - msgs0;
        total.bytes += bytes1 - bytes0;

        let acked = acked_overall(&[&lat, &cap]);
        let mut leg_repeat = Repeat {
            lat,
            cap,
            ..Repeat::default()
        };
        let writes_acked = leg_repeat.lat.writes_acked + leg_repeat.cap.writes_acked;
        let snap = traced.then(|| GlobeRuntime::trace(&rt));
        if let Some(s) = &snap {
            traces.push(trace_stats(s, writes_acked));
        }
        verify(
            &rt,
            &shape,
            &documents,
            homes,
            &acked,
            snap.as_ref(),
            &mut leg_repeat,
        )
        .map_err(|e| format!("leg {leg}: {e}"))?;
        total.counters = read_counters(&rt, writes_acked);
        total.check_ms += leg_repeat.check_ms;
        let leg_reads = (leg_repeat.lat.reads_done + leg_repeat.cap.reads_done) as f64;
        stale_reads += leg_repeat.stale_read_frac * leg_reads;
        reads += leg_reads;
        entries += leg_repeat.history_entries_per_op * leg_repeat.completed() as f64;
        total.lat.absorb(&leg_repeat.lat);
        total.cap.absorb(&leg_repeat.cap);
    }
    let cap_ops = total.cap.completed();
    total.proc_cost = proc_cost(proc0, proc::snapshot(), total.completed());
    total.alloc_per_op = alloc_per_op(alloc0, proc::alloc_totals(), total.completed());
    total.ops_s = cap_ops as f64 / cap_wall.as_secs_f64().max(1e-9);
    total.stale_read_frac = stale_reads / reads.max(1.0);
    total.history_entries_per_op = entries / total.completed().max(1) as f64;
    // A leg is one deployment; the sweep's set-up figure is a leg's, so
    // the run's median is taken over legs × repeats.
    let med = |f: fn(&SetupTimes) -> f64| {
        stats::median(&setups.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    total.setup = SetupTimes {
        total_s: med(|s| s.total_s),
        create_object_us: med(|s| s.create_object_us),
        bind_us: med(|s| s.bind_us),
        start_ms: med(|s| s.start_ms),
        preload_ms: med(|s| s.preload_ms),
    };
    if traced {
        total.spans = Some(spans);
        let med = |f: fn(&TraceStats) -> f64| {
            stats::median(&traces.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        total.trace = Some(TraceStats {
            order_to_apply_us: med(|t| t.order_to_apply_us),
            apply_to_ack_us: med(|t| t.apply_to_ack_us),
            events_per_write: med(|t| t.events_per_write),
            dropped: traces.iter().map(|t| t.dropped).sum(),
        });
    }
    Ok(total)
}

/// A directory inside the checkout (never the system temp dir: the
/// benchmark may write only under its working directory), removed on
/// drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `.bench_scratch/<tag>_<pid>_<n>` under the working directory.
    ///
    /// # Errors
    ///
    /// The directory could not be created.
    pub fn new(tag: &str) -> Result<ScratchDir, String> {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path =
            PathBuf::from(".bench_scratch").join(format!("{tag}_{}_{seq}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(err("create scratch dir"))?;
        Ok(ScratchDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave nothing behind when this was the last run using it.
        let _ = std::fs::remove_dir(".bench_scratch");
    }
}

/// Total size of the files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Spacing of the fault drill's open-loop schedule: 2 000 operations a
/// second, a sixteenth of `tcp_web_mix`'s capacity, so the schedule
/// itself never queues and 1.8 s hold the ≥ 1 000 reads p99 needs.
pub const DRILL_GAP: Duration = Duration::from_micros(500);

/// One repeat of `tcp_durable_failover`: an open loop through an
/// unattended fail-over, then a durable mirror's crash recovery.
fn drill_repeat(scale: &Scale, seed: u64, traced: bool) -> Result<Repeat, String> {
    let shape = Shape {
        path: "/bench/tcp_durable_failover",
        // PRAM, not FIFO: FIFO *by definition* ignores (and still acks)
        // a write outrun by a later one from the same client, which is
        // exactly what a retransmission after fail-over is — "no acked
        // write lost" can only be asserted under a model that applies
        // every write.
        policy: immediate(ObjectModel::Pram),
        mirrors: 2,
        read_at: ReadAt::Mirror,
        read_permille: 300,
        body_bytes: 1024,
    };
    let dir = ScratchDir::new("failover")?;
    let born = Instant::now();
    let config = base_config(seed, traced)
        .durable_dir(dir.path())
        .checkpoint_every(256)
        .heartbeat_period(Duration::from_millis(20))
        .auto_failover(true);
    let mut rt = GlobeTcp::with_config(config);
    let dep = deploy(&mut rt, &shape, born)?;
    let mut repeat = Repeat {
        setup: dep.setup,
        ..Repeat::default()
    };
    let port: Arc<dyn globe_core::EnginePort> =
        rt.engine_port().ok_or("GlobeTcp has no engine port")?;
    let wall = WallPort {
        port: Arc::clone(&port),
        handle: dep.client,
    };
    let (msgs0, bytes0) = traffic(&rt);
    let ops = gen::plan(seed, scale.drill_ops, shape.read_permille, PAGES as u64);

    let mut partitioned_at: Option<Duration> = None;
    let mut healed = false;
    let mut fault_error: Option<String> = None;
    let loop_start = Instant::now();
    let home = dep.home;
    let (partition_at, heal_at) = (scale.partition_at, scale.heal_at);
    let mut schedule = |t: Duration| {
        if partitioned_at.is_none() && t >= partition_at {
            if let Err(e) = rt.partition_node(home, true) {
                fault_error = Some(format!("isolate the home: {e}"));
            }
            partitioned_at = Some(loop_start.elapsed());
        }
        if !healed && t >= heal_at {
            healed = true;
            if let Err(e) = rt.partition_node(home, false) {
                fault_error = Some(format!("heal the partition: {e}"));
            }
        }
    };
    let (proc0, alloc0) = (proc::snapshot(), proc::alloc_totals());
    let mut spanned = Spanned::new(wall, traced);
    repeat.lat = open_loop(
        &mut spanned,
        &ops,
        shape.body_bytes,
        DRILL_GAP,
        SPIN_PAUSE,
        &mut schedule,
    );
    repeat.spans = spanned.into_spans();
    if let Some(e) = fault_error {
        return Err(e);
    }
    repeat.rss_mib = proc::rss_mib();
    let ops_done = repeat.lat.completed();
    repeat.proc_cost = proc_cost(proc0, proc::snapshot(), ops_done);
    repeat.alloc_per_op = alloc_per_op(alloc0, proc::alloc_totals(), ops_done);
    // The rate is fixed by the schedule; what can move is how much of
    // it the system completed, and how long the tail took to drain.
    repeat.ops_s = ops_done as f64 / repeat.lat.elapsed.as_secs_f64().max(1e-9);

    let isolated = partitioned_at.ok_or("the run ended before the partition was injected")?;
    let outage = repeat
        .lat
        .write_done_at
        .iter()
        .filter(|(_, due)| *due >= isolated)
        .map(|(done, _)| done.saturating_sub(isolated))
        .min()
        .ok_or("no write due after the partition was ever acknowledged")?;

    // The deposed home rejoins and every store converges …
    settle_and_audit(
        &mut rt,
        &dep,
        Duration::from_millis(20),
        Duration::from_secs(10),
    )?;
    // … then a durable mirror misses a stretch of writes, crashes, and
    // must find its way back to the home's state from its own files
    // plus whatever suffix the home ships.
    let victim = *dep.mirrors.last().ok_or("the drill needs two mirrors")?;
    rt.partition_node(victim, true)
        .map_err(err("isolate the durable mirror"))?;
    let drill_writes = ops.iter().filter(|op| !op.is_read).count() as u64;
    let missed = gen::plan(
        seed ^ 0x5bd1_e995,
        scale.missed_writes,
        0,
        PAGES as u64 + drill_writes,
    );
    let mut wall = WallPort {
        port,
        handle: dep.client,
    };
    let catch_up = closed_loop(&mut wall, &missed, shape.body_bytes, 1, SPIN_PAUSE);
    rt.partition_node(victim, false)
        .map_err(err("heal the durable mirror"))?;
    let t = Instant::now();
    rt.restart_store(dep.object, victim, Box::new(WebSemantics::new()))
        .map_err(err("restart the durable mirror"))?;
    let (documents, homes) = settle_and_audit(
        &mut rt,
        &dep,
        Duration::from_micros(200),
        Duration::from_secs(10),
    )?;
    let recover_ms = t.elapsed().as_secs_f64() * 1e3;
    let (msgs1, bytes1) = traffic(&rt);
    repeat.msgs = msgs1 - msgs0;
    repeat.bytes = bytes1 - bytes0;

    let acked = acked_overall(&[&repeat.lat, &catch_up]);
    // The catch-up writes count as operations (attempted, completed,
    // failed if any did), but their latencies belong to no metric.
    repeat.cap = LoopOutcome {
        read_us: Vec::new(),
        write_us: Vec::new(),
        ..catch_up
    };
    let writes_acked = repeat.lat.writes_acked + repeat.cap.writes_acked;
    let mut drill = DrillStats {
        outage_ms: outage.as_secs_f64() * 1e3,
        recover_ms,
        disk_amp: dir_bytes(dir.path()) as f64 / (writes_acked.max(1) * shape.body_bytes) as f64,
        ..DrillStats::default()
    };
    repeat.counters = read_counters(&rt, writes_acked);
    let snap = traced.then(|| rt.trace());
    if let Some(snap) = &snap {
        repeat.trace = Some(trace_stats(snap, writes_acked));
        let timeline = snap.failover_timeline();
        let ms = |d: Option<Duration>| d.map_or(0.0, |d| d.as_secs_f64() * 1e3);
        // The journal has no "partition injected" event; the last write
        // the old home applied before the first suspicion is within one
        // schedule gap (1 ms) of it.
        let last_at_home = timeline.suspected.and_then(|suspected| {
            snap.events
                .iter()
                .filter(|e| {
                    e.node == home
                        && e.at <= suspected
                        && matches!(e.event, ProtocolEvent::WriteApplied { .. })
                })
                .map(|e| e.at)
                .max()
        });
        drill.detect_ms = ms(timeline
            .suspected
            .zip(last_at_home)
            .map(|(s, l)| s.saturating_since(l)));
        drill.elect_ms = ms(timeline.detection_to_takeover());
        drill.first_write_ms = ms(timeline.takeover_to_first_write());
        for e in &snap.events {
            match e.event {
                ProtocolEvent::DeltaTransferSent { entries, .. } => {
                    drill.delta_entries += entries as f64;
                }
                ProtocolEvent::StateTransferSent { .. } => drill.full_transfers += 1.0,
                _ => {}
            }
        }
    }
    repeat.drill = Some(drill);
    let verdict = verify(
        &rt,
        &shape,
        &documents,
        homes,
        &acked,
        snap.as_ref(),
        &mut repeat,
    );
    rt.shutdown();
    verdict.map(|()| repeat)
}

/// Runs one repeat of the named workload.
///
/// # Errors
///
/// A failed set-up step or a failed correctness check, in one line.
pub fn run_repeat(
    workload: &str,
    scale: &Scale,
    seed: u64,
    traced: bool,
) -> Result<Repeat, String> {
    let shard = |path, read_permille| Shape {
        path,
        policy: immediate(ObjectModel::Fifo),
        mirrors: 3,
        read_at: ReadAt::Mirror,
        read_permille,
        body_bytes: 256,
    };
    match workload {
        "sim_policy_sweep" => sim_repeat(scale, seed, traced),
        "shard_write_fanout" => wall_repeat(
            GlobeShard::with_config,
            &shard("/bench/shard_write_fanout", 100),
            scale,
            seed,
            traced,
        ),
        "shard_read_mostly" => wall_repeat(
            GlobeShard::with_config,
            &shard("/bench/shard_read_mostly", 950),
            scale,
            seed,
            traced,
        ),
        "tcp_web_mix" => wall_repeat(
            GlobeTcp::with_config,
            &Shape {
                path: "/bench/tcp_web_mix",
                policy: immediate(ObjectModel::Fifo),
                mirrors: 1,
                read_at: ReadAt::Mirror,
                read_permille: 900,
                body_bytes: 1024,
            },
            scale,
            seed,
            traced,
        ),
        "tcp_durable_failover" => drill_repeat(scale, seed, traced),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Deploys `shape` on `rt` and runs `plan` with one operation in flight,
/// through the engine port where the backend has one and by stepping
/// the runtime where it does not (the simulator).
fn null_loop<R: GlobeRuntime>(
    mut rt: R,
    shape: &Shape,
    plan: &[Op],
) -> Result<LoopOutcome, String> {
    let dep = deploy(&mut rt, shape, Instant::now())?;
    let out = match rt.engine_port() {
        Some(port) => {
            let mut port = WallPort {
                port,
                handle: dep.client,
            };
            closed_loop(&mut port, plan, shape.body_bytes, 1, SPIN_PAUSE)
        }
        None => {
            let mut port = RuntimePort {
                rt: &mut rt,
                handle: dep.client,
            };
            closed_loop(&mut port, plan, shape.body_bytes, 1, Duration::ZERO)
        }
    };
    rt.shutdown();
    Ok(out)
}

/// The null operation on each backend: one store, a read of a 16-byte
/// page, one in flight. Returns the median round trip in µs — the floor
/// under every lat-phase latency on that backend.
///
/// # Errors
///
/// Set-up failures, or an operation that did not complete.
pub fn null_rtt_us(backend: &str, ops: usize, seed: u64) -> Result<f64, String> {
    let shape = Shape {
        path: "/bench/null",
        policy: immediate(ObjectModel::Fifo),
        mirrors: 0,
        read_at: ReadAt::Mirror,
        read_permille: 1000,
        body_bytes: 16,
    };
    let plan = gen::plan(seed, ops, 1000, PAGES as u64);
    let config = base_config(seed, false);
    let out = match backend {
        "sim" => null_loop(
            GlobeSim::with_config(Topology::lan(), config),
            &shape,
            &plan,
        )?,
        "shard" => null_loop(GlobeShard::with_config(config), &shape, &plan)?,
        "tcp" => null_loop(GlobeTcp::with_config(config), &shape, &plan)?,
        other => return Err(format!("unknown backend {other:?}")),
    };
    if out.errors() > 0 {
        return Err(format!("{} null ops failed on {backend}", out.errors()));
    }
    stats::median(&out.read_us).ok_or_else(|| "no null op completed".to_string())
}

/// Capacity of two objects driven by two generator threads over that of
/// one object and one generator, on `GlobeShard`. Informational and
/// known to be noisy on two cores: the generators and the lanes share
/// them.
///
/// # Errors
///
/// Set-up failures.
pub fn shard_two_lane_speedup(ops: usize, seed: u64) -> Result<f64, String> {
    let run = |objects: usize| -> Result<f64, String> {
        let mut rt = GlobeShard::with_config(base_config(seed, false));
        let client_node = rt.add_node().map_err(err("add client node"))?;
        let mut handles = Vec::new();
        for i in 0..objects {
            let store = rt.add_node().map_err(err("add store node"))?;
            let object = ObjectSpec::new(format!("/bench/lane{i}"))
                .policy(immediate(ObjectModel::Fifo))
                .semantics(WebSemantics::new)
                .store(store, StoreClass::Permanent)
                .create(&mut rt)
                .map_err(err("create object"))?;
            handles.push(
                rt.bind(object, client_node, BindOptions::new().read_node(store))
                    .map_err(err("bind"))?,
            );
        }
        rt.start(&[client_node]);
        let port = rt.engine_port().ok_or("GlobeShard has no engine port")?;
        let plan = gen::plan(seed, ops, 0, 0);
        let start = Instant::now();
        let done: usize = std::thread::scope(|scope| {
            let workers: Vec<_> = handles
                .iter()
                .map(|&handle| {
                    let mut port = WallPort {
                        port: Arc::clone(&port),
                        handle,
                    };
                    let plan = &plan;
                    scope
                        .spawn(move || closed_loop(&mut port, plan, 256, 4, SPIN_PAUSE).completed())
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap_or(0)).sum()
        });
        let rate = done as f64 / start.elapsed().as_secs_f64().max(1e-9);
        rt.shutdown();
        Ok(rate)
    };
    let one = run(1)?;
    let two = run(2)?;
    Ok(two / one.max(1e-9))
}

/// A 16-page document of `body_bytes` pages, for the semantics and
/// storage probes.
pub fn sample_document(body_bytes: usize) -> WebSemantics {
    let mut doc = globe_web::WebDocument::new();
    for page in 0..PAGES {
        doc.put(
            gen::page_name(page),
            Page::html(gen::body(page as u64 + 1, body_bytes)),
        );
    }
    WebSemantics::with_document(doc)
}
