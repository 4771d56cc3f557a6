//! SATURATE — per-backend throughput ceiling of the load engine.
//!
//! Sweeps the number of concurrent writer handles on each backend and
//! lets the engine drive them open-loop at a fixed per-writer offered
//! rate: operations are issued at their scheduled instants whether or
//! not earlier ones completed, so total offered load grows with the
//! writer count and the backend's ceiling shows up as the knee where
//! the completed rate stops tracking it (the generator never silently
//! slows down to hide it). Each writer gets its own object (on the
//! shard backend sequential object ids hash to distinct lanes), so
//! adding writers adds both client threads and store-side parallelism.
//!
//! The simulator has no [`globe_core::EnginePort`]; the engine falls
//! back to its interleaved virtual-time schedule there, and the row is
//! reported in virtual ops/sec — a determinism baseline rather than a
//! saturation point.
//!
//! Emits `BENCH_saturate.json` (override with `--out`); `--smoke` or
//! `BENCH_SMOKE=1` selects the reduced CI configuration. The sweep rows
//! report the generator's offered rate wherever the backend keeps up,
//! so nothing is asserted on them; CI asserts only on the group-commit
//! and lease legs, which saturate.

use std::time::Duration;

use globe_bench::json::{write_json, Json};
use globe_bench::{fmt_duration, fmt_f64, Table};
use globe_coherence::{ObjectModel, StoreClass};
use globe_core::{
    BindOptions, ClientHandle, GlobeRuntime, GlobeShard, GlobeSim, GlobeTcp, ObjectSpec,
    ProtocolCounters, ReplicationPolicy, RuntimeConfig, TransportFaults,
};
use globe_net::Topology;
use globe_web::WebSemantics;
use globe_workload::{run_engine, Arrival, EngineMode, EngineReport, WorkloadSpec};

/// Shard lanes are held constant across the sweep (more than the widest
/// writer count) so only the offered load varies, never the runtime.
const LANES: usize = 8;

/// Open-loop arrival gap on the shard backend: a fixed per-writer
/// offered rate (10k ops/s), so the sweep raises total offered load
/// with the writer count and saturation shows up as the knee where the
/// speedup column flattens below the writer count.
const SHARD_GAP: Duration = Duration::from_micros(100);

/// Open-loop gap on the TCP backend: still well above what loopback
/// round trips sustain, but bounded so kernel socket buffers don't
/// absorb an unbounded queue.
const TCP_GAP: Duration = Duration::from_micros(100);

/// Spec for the wall-clock (concurrent open-loop) backends.
fn wall_spec(smoke: bool, gap: Duration) -> WorkloadSpec {
    WorkloadSpec {
        duration: if smoke {
            Duration::from_millis(250)
        } else {
            Duration::from_secs(2)
        },
        drain: if smoke {
            Duration::from_millis(400)
        } else {
            Duration::from_secs(1)
        },
        pages: 4,
        zipf_theta: 0.8,
        page_bytes: 128,
        incremental: true,
        reader_arrival: Arrival::Poisson(1.0), // no readers in this sweep
        writer_arrival: Arrival::Fixed(gap),
        seed: 17,
    }
}

/// Spec for the simulator's interleaved virtual-time baseline: a
/// precomputed schedule, so a moderate Poisson rate instead of a
/// near-zero gap.
fn sim_spec(smoke: bool) -> WorkloadSpec {
    WorkloadSpec {
        duration: if smoke {
            Duration::from_secs(2)
        } else {
            Duration::from_secs(10)
        },
        drain: Duration::from_secs(1),
        pages: 4,
        zipf_theta: 0.8,
        page_bytes: 128,
        incremental: true,
        reader_arrival: Arrival::Poisson(1.0),
        writer_arrival: Arrival::Poisson(200.0),
        seed: 17,
    }
}

/// Runtime-side counters captured just before shutdown: what the leg
/// observed beyond the engine's own report — transport faults survived,
/// detector heartbeat traffic, and the always-on protocol counters.
#[derive(Clone, Copy, Default)]
struct RuntimeCounters {
    protocol: ProtocolCounters,
    transport: TransportFaults,
    heartbeat_pings: u64,
}

fn capture_counters<R: GlobeRuntime>(rt: &R) -> RuntimeCounters {
    let metrics = rt.metrics();
    let m = metrics.lock();
    RuntimeCounters {
        protocol: m.protocol,
        transport: m.transport,
        heartbeat_pings: m.traffic.get("NodePing").map_or(0, |k| k.count),
    }
}

/// JSON for the transport-fault and heartbeat counters of one leg.
fn transport_json(c: &RuntimeCounters) -> Json {
    Json::obj([
        (
            "malformed_frames",
            Json::Int(c.transport.malformed_frames as i64),
        ),
        ("send_errors", Json::Int(c.transport.send_errors as i64)),
        ("disconnects", Json::Int(c.transport.disconnects as i64)),
        (
            "rejected_frames",
            Json::Int(c.transport.rejected_frames as i64),
        ),
        (
            "spawn_failures",
            Json::Int(c.transport.spawn_failures as i64),
        ),
    ])
}

/// JSON for the group-commit counters: flush-reason histogram and
/// batch occupancy.
fn flush_json(p: &ProtocolCounters) -> Json {
    Json::obj([
        (
            "flush_reasons",
            Json::obj(
                globe_core::FlushReason::ALL
                    .iter()
                    .map(|&r| (r.name(), Json::Int(p.flush_count(r) as i64))),
            ),
        ),
        ("flushes", Json::Int(p.flushes() as i64)),
        ("batch_writes", Json::Int(p.batch_writes as i64)),
        ("batch_max_size", Json::Int(p.batch_max_size as i64)),
        ("mean_batch_occupancy", Json::Num(p.mean_batch_occupancy())),
    ])
}

/// JSON for the read-lease counters: the served/forwarded/refused mix
/// and the derived hit ratio.
fn lease_json(p: &ProtocolCounters) -> Json {
    Json::obj([
        ("served", Json::Int(p.lease_served as i64)),
        ("forwarded", Json::Int(p.lease_forwarded as i64)),
        ("refused", Json::Int(p.lease_refused as i64)),
        ("hit_ratio", Json::Num(p.lease_hit_ratio())),
    ])
}

/// Builds `writers` single-store objects (one writer handle each, all
/// on one client node) and runs the engine against them.
fn measure<R: GlobeRuntime>(
    rt: &mut R,
    writers: usize,
    spec: &WorkloadSpec,
) -> (EngineReport, RuntimeCounters) {
    let client = rt.add_node().expect("client node");
    let policy = ReplicationPolicy::builder(ObjectModel::Fifo)
        .immediate()
        .build()
        .expect("valid policy");
    let handles: Vec<ClientHandle> = (0..writers)
        .map(|i| {
            let store = rt.add_node().expect("store node");
            let object = ObjectSpec::new(format!("/saturate/obj{i:02}"))
                .policy(policy.clone())
                .semantics(WebSemantics::new)
                .store(store, StoreClass::Permanent)
                .create(rt)
                .expect("create object");
            rt.bind(object, client, BindOptions::new().read_node(store))
                .expect("bind writer")
        })
        .collect();
    rt.start(&[client]);
    let report = run_engine(rt, &[], &handles, spec);
    let counters = capture_counters(rt);
    rt.shutdown();
    (report, counters)
}

/// Open-loop gap for the group-commit leg: a moderate per-writer rate
/// (5k ops/s each, 20k total into ONE sequencer) chosen so the home
/// lane's per-write fan-out work — not the client generator threads —
/// is the bottleneck. The unbatched variant saturates below the
/// offered rate; the batched variant, which pays the fan-out once per
/// batch, keeps up.
const GROUP_GAP: Duration = Duration::from_micros(200);

/// Open-loop gap for the read-lease leg: the reader rate is pushed
/// high (40k ops/s each) because a mirror-local read is cheap — only
/// this deep into saturation does the forwarded variant's doubled
/// message count show up as a completed-rate gap.
const LEASE_GAP: Duration = Duration::from_micros(25);

/// How many writes the sequencer may fold into one ordering decision
/// and one fan-out frame in the batched variant.
const BATCH_MAX: usize = 8;

/// Permanent mirrors behind the shared sequencer in the group-commit
/// leg: each write costs the home one fan-out frame per mirror, so the
/// batched saving (one frame per mirror per *batch*) scales with this.
const GROUP_MIRRORS: usize = 6;

/// Spec for the shared-object group-commit runs: writers only.
fn group_spec(smoke: bool) -> WorkloadSpec {
    WorkloadSpec {
        reader_arrival: Arrival::Poisson(1.0), // no readers in this leg
        writer_arrival: Arrival::Fixed(GROUP_GAP),
        ..wall_spec(smoke, GROUP_GAP)
    }
}

/// Spec for the read-lease runs: reader-heavy against the mirror, with
/// a trickle of writes so leased reads must track a moving version.
fn lease_spec(smoke: bool) -> WorkloadSpec {
    WorkloadSpec {
        reader_arrival: Arrival::Fixed(LEASE_GAP),
        writer_arrival: Arrival::Poisson(50.0),
        ..wall_spec(smoke, LEASE_GAP)
    }
}

/// Builds ONE sequenced object — a home store plus one permanent
/// mirror — with every writer handle aimed at the home and every
/// reader handle aimed at the mirror, then runs the engine. This is
/// the configuration where group commit (fan-out frames per batch,
/// not per write) and read leases (mirror-local reads instead of
/// home-validated forwards) actually change the message economy.
fn measure_shared<R: GlobeRuntime>(
    rt: &mut R,
    writers: usize,
    readers: usize,
    mirrors: usize,
    spec: &WorkloadSpec,
) -> (EngineReport, RuntimeCounters) {
    let client = rt.add_node().expect("client node");
    let home = rt.add_node().expect("home node");
    let mirror_nodes: Vec<_> = (0..mirrors.max(1))
        .map(|_| rt.add_node().expect("mirror node"))
        .collect();
    let mirror = mirror_nodes[0];
    let policy = ReplicationPolicy::builder(ObjectModel::Fifo)
        .immediate()
        .build()
        .expect("valid policy");
    let mut spec_builder = ObjectSpec::new("/saturate/shared")
        .policy(policy)
        .semantics(WebSemantics::new)
        .store(home, StoreClass::Permanent);
    for &node in &mirror_nodes {
        spec_builder = spec_builder.store(node, StoreClass::Permanent);
    }
    let object = spec_builder.create(rt).expect("create object");
    let writer_handles: Vec<ClientHandle> = (0..writers)
        .map(|_| {
            rt.bind(object, client, BindOptions::new().read_node(home))
                .expect("bind writer")
        })
        .collect();
    let reader_handles: Vec<ClientHandle> = (0..readers)
        .map(|_| {
            rt.bind(object, client, BindOptions::new().read_node(mirror))
                .expect("bind reader")
        })
        .collect();
    rt.start(&[client]);
    let report = run_engine(rt, &reader_handles, &writer_handles, spec);
    let counters = capture_counters(rt);
    rt.shutdown();
    (report, counters)
}

/// Runs a measurement twice and keeps the trial with the higher score
/// — the less scheduler-perturbed of the two.
fn best_of_two(
    mut run: impl FnMut() -> (EngineReport, RuntimeCounters),
    score: impl Fn(&EngineReport) -> f64,
) -> (EngineReport, RuntimeCounters) {
    let first = run();
    let second = run();
    if score(&second.0) > score(&first.0) {
        second
    } else {
        first
    }
}

/// Completed-operations rate over the report's elapsed window.
fn rate(completed: usize, report: &EngineReport) -> f64 {
    let secs = report.elapsed.as_secs_f64();
    if secs > 0.0 {
        completed as f64 / secs
    } else {
        0.0
    }
}

/// JSON for one shared-object run, keyed on the latency class that
/// matters for the leg (writes for group commit, reads for leases).
fn shared_run_json(report: &EngineReport, lat: &globe_workload::LatencySummary) -> Json {
    Json::obj([
        ("ops_per_s", Json::Num(report.ops_per_sec())),
        ("reads_completed", Json::Int(report.reads_completed as i64)),
        (
            "writes_completed",
            Json::Int(report.writes_completed as i64),
        ),
        ("issue_errors", Json::Int(report.issue_errors as i64)),
        ("abandoned", Json::Int(report.abandoned as i64)),
        ("p50_us", Json::Num(lat.p50.as_secs_f64() * 1e6)),
        ("p99_us", Json::Num(lat.p99.as_secs_f64() * 1e6)),
        ("p999_us", Json::Num(lat.p999.as_secs_f64() * 1e6)),
        ("elapsed_s", Json::Num(report.elapsed.as_secs_f64())),
    ])
}

fn mode_name(mode: EngineMode) -> &'static str {
    match mode {
        EngineMode::Interleaved => "interleaved",
        EngineMode::Concurrent { .. } => "concurrent",
    }
}

fn main() {
    let smoke = globe_bench::smoke_mode();
    let out = globe_bench::out_path_arg().unwrap_or_else(|| "BENCH_saturate.json".to_string());
    let counts: &[usize] = if smoke { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "Engine saturation sweep: {counts:?} open-loop writers, one object each,\n\
         fixed per-writer offered rates on the wall-clock backends ({LANES} shard\n\
         lanes, {cores} core(s) detected). Sim rows are the interleaved\n\
         virtual-time baseline, not a saturation point.\n"
    );

    let mut table = Table::new(
        "Completed throughput by backend and writer count",
        &[
            "backend", "writers", "mode", "ops/s", "p50", "p99", "p999", "speedup",
        ],
    );
    let mut backends = Vec::new();
    for backend in ["sim", "tcp", "shard"] {
        let mut baseline: Option<f64> = None;
        let mut rows = Vec::new();
        for &writers in counts {
            let (report, counters) = match backend {
                "sim" => {
                    let mut rt = GlobeSim::new(Topology::lan(), 17);
                    measure(&mut rt, writers, &sim_spec(smoke))
                }
                "tcp" => {
                    let mut rt = GlobeTcp::new();
                    measure(&mut rt, writers, &wall_spec(smoke, TCP_GAP))
                }
                _ => {
                    let mut rt = GlobeShard::new(LANES);
                    measure(&mut rt, writers, &wall_spec(smoke, SHARD_GAP))
                }
            };
            let ops = report.ops_per_sec();
            let speedup = match baseline {
                None => {
                    baseline = Some(ops);
                    1.0
                }
                Some(base) => ops / base.max(f64::EPSILON),
            };
            let lat = &report.write_latency;
            table.row(vec![
                backend.to_string(),
                writers.to_string(),
                mode_name(report.mode).to_string(),
                fmt_f64(ops),
                fmt_duration(lat.p50),
                fmt_duration(lat.p99),
                fmt_duration(lat.p999),
                fmt_f64(speedup),
            ]);
            rows.push(Json::obj([
                ("writers", Json::Int(writers as i64)),
                ("mode", Json::str(mode_name(report.mode))),
                ("ops_per_s", Json::Num(ops)),
                ("writes_issued", Json::Int(report.writes_issued as i64)),
                (
                    "writes_completed",
                    Json::Int(report.writes_completed as i64),
                ),
                ("issue_errors", Json::Int(report.issue_errors as i64)),
                ("abandoned", Json::Int(report.abandoned as i64)),
                ("p50_us", Json::Num(lat.p50.as_secs_f64() * 1e6)),
                ("p99_us", Json::Num(lat.p99.as_secs_f64() * 1e6)),
                ("p999_us", Json::Num(lat.p999.as_secs_f64() * 1e6)),
                ("elapsed_s", Json::Num(report.elapsed.as_secs_f64())),
                ("speedup_vs_1", Json::Num(speedup)),
                ("transport_faults", transport_json(&counters)),
                (
                    "heartbeat_pings",
                    Json::Int(counters.heartbeat_pings as i64),
                ),
            ]));
        }
        backends.push(Json::obj([
            ("backend", Json::str(backend)),
            ("results", Json::Array(rows)),
        ]));
    }
    println!("{table}");

    // ---- Group commit: 4 writers through ONE sequencer, batch_max 1
    // vs BATCH_MAX, on the shard backend. The unbatched run is today's
    // protocol bit-for-bit (batch_max = 1 is the config default).
    let base_config = RuntimeConfig::new().seed(17);
    let batched_config = base_config
        .clone()
        .batch_max(BATCH_MAX)
        .batch_window(Duration::from_millis(1));
    let group = group_spec(smoke);
    // Two trials per variant, best completed rate kept: on a shared,
    // deliberately oversaturated sequencer a single short trial is at
    // the mercy of the host scheduler.
    let (unbatched, unbatched_counters) = best_of_two(
        || {
            let mut rt = GlobeShard::with_config(base_config.clone());
            measure_shared(&mut rt, 4, 0, GROUP_MIRRORS, &group)
        },
        |r| rate(r.writes_completed, r),
    );
    let (batched, batched_counters) = best_of_two(
        || {
            let mut rt = GlobeShard::with_config(batched_config.clone());
            measure_shared(&mut rt, 4, 0, GROUP_MIRRORS, &group)
        },
        |r| rate(r.writes_completed, r),
    );
    let unbatched_rate = rate(unbatched.writes_completed, &unbatched);
    let batched_rate = rate(batched.writes_completed, &batched);
    let batched_speedup = batched_rate / unbatched_rate.max(f64::EPSILON);
    let mut group_table = Table::new(
        "Group commit: 4 writers, one shared sequencer (shard backend)",
        &["variant", "writes/s", "p50", "p99", "p999", "speedup"],
    );
    for (name, report, speedup) in [
        ("batch_max=1", &unbatched, 1.0),
        ("batched", &batched, batched_speedup),
    ] {
        let lat = &report.write_latency;
        group_table.row(vec![
            name.to_string(),
            fmt_f64(rate(report.writes_completed, report)),
            fmt_duration(lat.p50),
            fmt_duration(lat.p99),
            fmt_duration(lat.p999),
            fmt_f64(speedup),
        ]);
    }
    println!("{group_table}");

    // ---- Read leases: 4 readers on the permanent mirror. Without a
    // lease every read is forwarded to the home for validation
    // (lease_duration 0 never grants); with leases the mirror serves
    // locally while its vector covers the grant.
    let forwarded_config = base_config
        .clone()
        .read_leases(true)
        .lease_duration(Duration::ZERO);
    let leased_config = base_config
        .read_leases(true)
        .lease_duration(Duration::from_secs(2));
    let lease = lease_spec(smoke);
    let (forwarded, forwarded_counters) = best_of_two(
        || {
            let mut rt = GlobeShard::with_config(forwarded_config.clone());
            measure_shared(&mut rt, 1, 4, 1, &lease)
        },
        |r| rate(r.reads_completed, r),
    );
    let (leased, leased_counters) = best_of_two(
        || {
            let mut rt = GlobeShard::with_config(leased_config.clone());
            measure_shared(&mut rt, 1, 4, 1, &lease)
        },
        |r| rate(r.reads_completed, r),
    );
    let forwarded_rate = rate(forwarded.reads_completed, &forwarded);
    let leased_rate = rate(leased.reads_completed, &leased);
    let leased_speedup = leased_rate / forwarded_rate.max(f64::EPSILON);
    let mut lease_table = Table::new(
        "Read leases: 4 readers on the mirror (shard backend)",
        &["variant", "reads/s", "p50", "p99", "p999", "speedup"],
    );
    for (name, report, speedup) in [
        ("forwarded", &forwarded, 1.0),
        ("leased", &leased, leased_speedup),
    ] {
        let lat = &report.read_latency;
        lease_table.row(vec![
            name.to_string(),
            fmt_f64(rate(report.reads_completed, report)),
            fmt_duration(lat.p50),
            fmt_duration(lat.p99),
            fmt_duration(lat.p999),
            fmt_f64(speedup),
        ]);
    }
    println!("{lease_table}");

    println!(
        "group commit speedup (batch_max {BATCH_MAX} vs 1): {}",
        fmt_f64(batched_speedup)
    );
    println!(
        "read lease speedup (leased vs forwarded): {}",
        fmt_f64(leased_speedup)
    );

    let doc = Json::obj([
        ("bench", Json::str("saturate")),
        ("mode", Json::str(if smoke { "smoke" } else { "full" })),
        ("lanes", Json::Int(LANES as i64)),
        ("cores", Json::Int(cores as i64)),
        ("shard_gap_us", Json::Num(SHARD_GAP.as_secs_f64() * 1e6)),
        ("tcp_gap_us", Json::Num(TCP_GAP.as_secs_f64() * 1e6)),
        ("backends", Json::Array(backends)),
        (
            "group_commit",
            Json::obj([
                ("backend", Json::str("shard")),
                ("writers", Json::Int(4)),
                ("batch_max", Json::Int(BATCH_MAX as i64)),
                ("shared_gap_us", Json::Num(GROUP_GAP.as_secs_f64() * 1e6)),
                ("mirrors", Json::Int(GROUP_MIRRORS as i64)),
                (
                    "unbatched",
                    shared_run_json(&unbatched, &unbatched.write_latency),
                ),
                ("batched", shared_run_json(&batched, &batched.write_latency)),
                ("batched_speedup", Json::Num(batched_speedup)),
                (
                    "unbatched_flushes",
                    flush_json(&unbatched_counters.protocol),
                ),
                ("batched_flushes", flush_json(&batched_counters.protocol)),
                ("transport_faults", transport_json(&batched_counters)),
                (
                    "heartbeat_pings",
                    Json::Int(batched_counters.heartbeat_pings as i64),
                ),
            ]),
        ),
        (
            "read_leases",
            Json::obj([
                ("backend", Json::str("shard")),
                ("readers", Json::Int(4)),
                (
                    "forwarded",
                    shared_run_json(&forwarded, &forwarded.read_latency),
                ),
                ("leased", shared_run_json(&leased, &leased.read_latency)),
                ("leased_speedup", Json::Num(leased_speedup)),
                (
                    "forwarded_lease_mix",
                    lease_json(&forwarded_counters.protocol),
                ),
                ("leased_lease_mix", lease_json(&leased_counters.protocol)),
                ("transport_faults", transport_json(&leased_counters)),
                (
                    "heartbeat_pings",
                    Json::Int(leased_counters.heartbeat_pings as i64),
                ),
            ]),
        ),
    ]);
    match write_json(&out, &doc) {
        Ok(_) => println!("wrote {out}"),
        Err(e) => eprintln!("failed to write {out}: {e}"),
    }
}
