//! Turning repeats and probes into the named metrics a run prints.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use super::json::Json;
use super::spec::{self, MetricDef};
use super::stats;
use super::workloads::{self, Repeat, Scale};
use super::{probes, proc};

/// A finished run: what the last line of standard output says.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Operations the generator attempted over all repeats.
    pub attempted: usize,
    /// Refused, failed and undrained operations over all repeats.
    pub failed: usize,
    /// Metric values by name; a metric whose source does not exist on
    /// this platform is absent, not zero.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Why each absent metric is absent.
    pub absent: Vec<(&'static str, &'static str)>,
    /// How many repeats the medians are over.
    pub repeats: usize,
}

impl RunResult {
    /// The contract's result object; `defs` fixes which metrics appear
    /// and in what order.
    pub fn to_json(&self, defs: &[MetricDef]) -> Json {
        let metrics = defs.iter().filter_map(|def| {
            let value = *self.metrics.get(def.name)?;
            Some((
                def.name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(def.unit))]),
            ))
        });
        Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Fewest repeats a full-scale run reports a median over.
const MIN_REPEATS: usize = 3;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    stats::sort(&mut v);
    v
}

/// p50 and p90 of one repeat's latencies. At full scale the sample must
/// also support p99 (≥ 10 samples beyond it) — the traced run prints
/// it — else the op counts are wrong for the mix, and the run says so
/// instead of printing a one-outlier "percentile".
fn latency(samples: &[f64], what: &str, scale: &Scale) -> Result<(f64, f64), String> {
    let v = sorted(samples);
    let p50 = stats::nearest_rank(&v, 500).ok_or_else(|| format!("no {what} completed"))?;
    let p90 = stats::nearest_rank(&v, 900).unwrap_or(p50);
    let supported = stats::supported_tail(&v).map_or(500, |t| t.0);
    if !scale.tiny && supported != 990 {
        return Err(format!(
            "{} {what} samples support only p{} — p99 needs 10 samples beyond it",
            v.len(),
            supported / 10
        ));
    }
    Ok((p50, p90))
}

fn median_of(repeats: &[Repeat], f: impl Fn(&Repeat) -> f64) -> f64 {
    stats::median(&repeats.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// The end-to-end run: as many fresh-runtime repeats as fit in
/// `seconds` (at least [`MIN_REPEATS`], one at `--tiny`), every metric
/// the median over repeats. Every repeat replays the same seeded plan,
/// so the simulator's counts do not depend on how many repeats fit.
///
/// # Errors
///
/// A failed set-up step or correctness check; the run prints no result.
pub fn end_to_end(
    workload: &str,
    scale: &Scale,
    seed: u64,
    seconds: f64,
) -> Result<RunResult, String> {
    let started = Instant::now();
    let min = if scale.tiny { 1 } else { MIN_REPEATS };
    let mut repeats = Vec::new();
    while repeats.len() < min || (!scale.tiny && started.elapsed().as_secs_f64() < seconds) {
        let r = workloads::run_repeat(workload, scale, seed, false)?;
        // Standard error carries the per-repeat view the medians hide.
        log_repeat(workload, &format!("repeat {}", repeats.len() + 1), &r);
        repeats.push(r);
    }
    let mut write = Vec::new();
    let mut read = Vec::new();
    for r in &repeats {
        write.push(latency(&r.lat.write_us, "lat-phase writes", scale)?);
        read.push(latency(&r.lat.read_us, "lat-phase reads", scale)?);
    }
    let med = |v: Vec<f64>| stats::median(&v).unwrap_or(0.0);
    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s", median_of(&repeats, |r| r.setup.total_s));
    metrics.insert("ops_s", median_of(&repeats, |r| r.ops_s));
    metrics.insert("write_p50_us", med(write.iter().map(|w| w.0).collect()));
    metrics.insert("write_p90_us", med(write.iter().map(|w| w.1).collect()));
    metrics.insert("read_p50_us", med(read.iter().map(|r| r.0).collect()));
    metrics.insert("read_p90_us", med(read.iter().map(|r| r.1).collect()));
    metrics.insert(
        "msgs_per_op",
        median_of(&repeats, |r| r.msgs as f64 / r.completed().max(1) as f64),
    );
    metrics.insert(
        "wire_bytes_per_op",
        median_of(&repeats, |r| r.bytes as f64 / r.completed().max(1) as f64),
    );
    // Resident memory at the end of the *first* repeat's timed phases:
    // the op count is fixed, so unbounded growth (history, logs) shows,
    // and a fresh process has no freed-but-retained memory from earlier
    // repeats to blur it. (The peak over the whole run, VmHWM, creeps
    // with the number of repeats that happened to fit.)
    let mut absent = Vec::new();
    match repeats.first().and_then(|r| r.rss_mib) {
        Some(mib) => {
            metrics.insert("rss_mb", mib);
        }
        None => absent.push(("rss_mb", "no /proc/self/status on this platform")),
    }
    Ok(RunResult {
        attempted: repeats
            .iter()
            .map(|r| r.lat.attempted + r.cap.attempted)
            .sum(),
        failed: repeats
            .iter()
            .map(|r| r.lat.errors() + r.cap.errors())
            .sum(),
        metrics,
        absent,
        repeats: repeats.len(),
    })
}

fn log_repeat(workload: &str, label: &str, r: &Repeat) {
    eprintln!(
        "{workload} {label}: setup {:.4} s, {:.0} ops/s, write p50/p90 {:.1}/{:.1} us, read p50/p90 {:.1}/{:.1} us, \
         {} refused, {} failed, {} undrained",
        r.setup.total_s,
        r.ops_s,
        p(&r.lat.write_us, 500),
        p(&r.lat.write_us, 900),
        p(&r.lat.read_us, 500),
        p(&r.lat.read_us, 900),
        r.lat.refused + r.cap.refused,
        r.lat.failed + r.cap.failed,
        r.lat.undrained + r.cap.undrained,
    );
}

fn p(samples: &[f64], permille: usize) -> f64 {
    stats::nearest_rank(&sorted(samples), permille).unwrap_or(0.0)
}

fn backend_of(workload: &str) -> &'static str {
    match workload.split('_').next() {
        Some("sim") => "sim",
        Some("shard") => "shard",
        _ => "tcp",
    }
}

/// The traced run: one untraced and one traced repeat of the workload
/// (their difference is the recorder's overhead), the fault drill and
/// the simulator legs where the workload is not already one of them,
/// and the isolated probes.
///
/// # Errors
///
/// A failed set-up step, probe or correctness check.
pub fn per_layer(workload: &str, scale: &Scale, seed: u64) -> Result<RunResult, String> {
    let body_bytes = if backend_of(workload) == "tcp" {
        1024
    } else {
        256
    };
    let plain = workloads::run_repeat(workload, scale, seed, false)?;
    proc::count_allocations(true);
    let traced = workloads::run_repeat(workload, scale, seed, true);
    proc::count_allocations(false);
    let traced = traced?;
    log_repeat(workload, "untraced repeat", &plain);
    log_repeat(workload, "traced repeat", &traced);

    let drill_repeat;
    let drill_source = if traced.drill.is_some() {
        &traced
    } else {
        drill_repeat = workloads::run_repeat("tcp_durable_failover", scale, seed, true)?;
        &drill_repeat
    };
    let drill = drill_source
        .drill
        .ok_or("the fault drill reported nothing")?;
    let legs = if traced.legs.is_empty() {
        // A quarter-length sweep: the per-leg split is informational on
        // the other workloads, the sweep itself is where it is gated.
        let quarter = Scale {
            sim_lat_ops: scale.sim_lat_ops / 4,
            sim_cap_ops: scale.sim_cap_ops / 4,
            ..scale.clone()
        };
        workloads::run_repeat("sim_policy_sweep", &quarter, seed, false)?.legs
    } else {
        traced.legs.clone()
    };

    let iters = scale.probe_iters;
    let wire = probes::wire(iters);
    let scratch = workloads::ScratchDir::new("storage_probe")?;
    let storage = probes::storage(iters / 2, scratch.path())?;
    drop(scratch);
    let semantics = probes::semantics(iters, body_bytes);
    let engine = probes::engine(iters, iters * 5, body_bytes);
    let record_ns = probes::coherence_record_ns(iters * 5);
    let net = probes::net(iters)?;
    let null_ops = (iters / 4).max(50);
    let sim_rtt = workloads::null_rtt_us("sim", null_ops, seed)?;
    let shard_rtt = workloads::null_rtt_us("shard", null_ops, seed)?;
    let tcp_rtt = workloads::null_rtt_us("tcp", null_ops, seed)?;
    let two_lane = workloads::shard_two_lane_speedup(iters / 2, seed)?;

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut absent = Vec::new();
    m.insert("wire.encode_ns.update_256", wire.encode_update_256);
    m.insert("wire.decode_ns.update_256", wire.decode_update_256);
    m.insert("wire.encode_ns.update_1k", wire.encode_update_1k);
    m.insert("wire.decode_ns.update_1k", wire.decode_update_1k);
    m.insert("wire.encode_ns.read_req", wire.encode_read_req);
    m.insert("wire.decode_ns.read_reply_1k", wire.decode_read_reply_1k);
    m.insert("wire.frame_bytes.update_256", wire.frame_bytes_update_256);
    m.insert("storage.mem_append_ns", storage.mem_append_ns);
    m.insert("storage.wal_append_ns", storage.wal_append_ns);
    m.insert("storage.wal_bytes_per_write", storage.wal_bytes_per_write);
    m.insert("storage.checkpoint_us", storage.checkpoint_us);
    m.insert("storage.truncate_us", storage.truncate_us);
    m.insert("storage.recover_us", storage.recover_us);
    m.insert("semantics.put_ns", semantics.put_ns);
    m.insert("semantics.get_ns", semantics.get_ns);
    m.insert("semantics.snapshot_us", semantics.snapshot_us);
    m.insert("engine.accept_write_us", engine.accept_write_us);
    m.insert("engine.accept_write_self_us", engine.accept_write_self_us);
    m.insert("engine.apply_update_us", engine.apply_update_us);
    m.insert("engine.serve_read_us", engine.serve_read_us);
    m.insert("engine.sends_per_write", engine.sends_per_write);
    m.insert("engine.bytes_per_write", engine.bytes_per_write);
    m.insert("engine.write_cost_growth", engine.write_cost_growth);
    let (encode_ns, decode_ns) = if body_bytes == 1024 {
        (wire.encode_update_1k, wire.decode_update_1k)
    } else {
        (wire.encode_update_256, wire.decode_update_256)
    };
    // What accept_write spends that no other layer's probe accounts
    // for: its self time minus one encode per frame sent, one log
    // append, one semantics put and two history records.
    let shares_us = (engine.sends_per_write * encode_ns
        + storage.mem_append_ns
        + semantics.put_ns
        + 2.0 * record_ns)
        / 1e3;
    m.insert(
        "engine.residual_us",
        engine.accept_write_self_us - shares_us,
    );
    m.insert("coherence.record_ns", record_ns);
    m.insert(
        "coherence.history_entries_per_op",
        traced.history_entries_per_op,
    );
    m.insert("coherence.check_ms", traced.check_ms);
    m.insert("coherence.stale_read_frac", traced.stale_read_frac);

    let spans = traced
        .spans
        .as_ref()
        .ok_or("the traced repeat recorded no spans")?;
    m.insert("port.issue_us_p50", p(&spans.issue_ns, 500) / 1e3);
    m.insert("port.issue_us_p99", p(&spans.issue_ns, 990) / 1e3);
    m.insert("port.poll_us_p50", p(&spans.poll_ns, 500) / 1e3);
    m.insert(
        "port.poll_hit_ratio",
        spans.hits as f64 / spans.poll_ns.len().max(1) as f64,
    );
    let done = traced.completed().max(1) as f64;
    m.insert("metrics.msgs_per_op", traced.msgs as f64 / done);
    m.insert("metrics.bytes_per_op", traced.bytes as f64 / done);
    m.insert(
        "metrics.flushes_per_write",
        traced.counters.flushes_per_write,
    );
    m.insert("metrics.batch_occupancy", traced.counters.batch_occupancy);
    m.insert("metrics.lease_hit_ratio", traced.counters.lease_hit_ratio);
    m.insert(
        "metrics.transport_faults",
        traced.counters.transport_faults as f64,
    );
    m.insert("metrics.ops_dropped", traced.counters.ops_dropped as f64);

    let trace = traced
        .trace
        .as_ref()
        .ok_or("the traced repeat has no trace")?;
    m.insert("trace.order_to_apply_us", trace.order_to_apply_us);
    m.insert("trace.apply_to_ack_us", trace.apply_to_ack_us);
    m.insert("trace.events_per_write", trace.events_per_write);
    m.insert("trace.dropped", trace.dropped as f64);
    // Every traced repeat ran `TraceChecker::check` as one of its
    // correctness checks; a violation fails the run before this line.
    m.insert("trace.checker_violations", 0.0);
    m.insert(
        "trace.overhead_frac",
        if plain.ops_s > 0.0 {
            1.0 - traced.ops_s / plain.ops_s
        } else {
            0.0
        },
    );

    m.insert("net.sim_step_ns", net.sim_step_ns);
    m.insert("net.tcp_rtt_us", net.tcp_rtt_us);
    m.insert("net.tcp_send_ns", net.tcp_send_ns);
    m.insert("net.timer_arm_ns", net.timer_arm_ns);
    m.insert("sim.rtt_wall_us", sim_rtt);
    m.insert("shard.rtt_us", shard_rtt);
    m.insert("tcp.rtt_us", tcp_rtt);
    m.insert("shard.hop_us", shard_rtt - engine.serve_read_us);
    m.insert("tcp.hop_us", tcp_rtt - engine.serve_read_us);
    m.insert("shard.two_lane_speedup", two_lane);

    match traced.proc_cost {
        Some(c) => {
            m.insert("proc.cpu_user_us_per_op", c.cpu_user_us_per_op);
            m.insert("proc.cpu_sys_us_per_op", c.cpu_sys_us_per_op);
            m.insert("proc.vol_ctx_per_op", c.vol_ctx_per_op);
            m.insert("proc.invol_ctx_per_op", c.invol_ctx_per_op);
        }
        None => {
            for name in [
                "proc.cpu_user_us_per_op",
                "proc.cpu_sys_us_per_op",
                "proc.vol_ctx_per_op",
                "proc.invol_ctx_per_op",
            ] {
                absent.push((name, "no /proc on this platform"));
            }
        }
    }
    match traced.alloc_per_op {
        Some((count, bytes)) => {
            m.insert("alloc.count_per_op", count);
            m.insert("alloc.bytes_per_op", bytes);
        }
        None => {
            for name in ["alloc.count_per_op", "alloc.bytes_per_op"] {
                absent.push((name, "this binary does not install the counting allocator"));
            }
        }
    }

    // Loaded latency: the capacity phase's own samples (the whole open
    // loop on the fault workload, which has no separate phase).
    let loaded = if plain.cap.write_us.is_empty() {
        &plain.lat
    } else {
        &plain.cap
    };
    m.insert("client.cap_write_p50_us", p(&loaded.write_us, 500));
    m.insert("client.cap_write_p99_us", p(&loaded.write_us, 990));
    m.insert("client.cap_read_p99_us", p(&loaded.read_us, 990));
    m.insert("client.lat_write_p99_us", p(&plain.lat.write_us, 990));
    m.insert("client.lat_read_p99_us", p(&plain.lat.read_us, 990));
    let attempted = plain.lat.attempted + plain.cap.attempted;
    m.insert(
        "client.error_frac",
        (plain.lat.errors() + plain.cap.errors()) as f64 / attempted.max(1) as f64,
    );
    m.insert("gen.late_p99_us", p(&drill_source.lat.late_us, 990));
    let busy_ns: f64 = spans.issue_ns.iter().chain(&spans.poll_ns).sum();
    let phase_ns = (traced.lat.elapsed + traced.cap.elapsed).as_nanos() as f64;
    m.insert("gen.busy_frac", busy_ns / phase_ns.max(1.0));

    m.insert("failover.outage_ms", drill.outage_ms);
    m.insert("failover.detect_ms", drill.detect_ms);
    m.insert("failover.elect_ms", drill.elect_ms);
    m.insert("failover.first_write_ms", drill.first_write_ms);
    m.insert("failover.recover_ms", drill.recover_ms);
    m.insert("failover.disk_amp", drill.disk_amp);
    m.insert("recover.delta_entries", drill.delta_entries);
    m.insert("recover.full_transfers", drill.full_transfers);

    m.insert("setup.create_object_us", traced.setup.create_object_us);
    m.insert("setup.bind_us", traced.setup.bind_us);
    m.insert("setup.start_ms", traced.setup.start_ms);
    m.insert("setup.preload_ms", traced.setup.preload_ms);

    for (leg, us_per_op) in legs {
        if let Some(def) = spec::find(&format!("sim.us_per_op.{leg}")) {
            m.insert(def.name, us_per_op);
        }
    }

    // The budget: one unloaded write is a null round trip on this
    // backend (issue, two hops, poll — less the read it served), plus
    // the home's accept_write, plus moving the bigger frame through the
    // codec once. What that leaves of write_p50_us is unexplained.
    let rtt = match backend_of(workload) {
        "sim" => sim_rtt,
        "shard" => shard_rtt,
        _ => tcp_rtt,
    };
    let write_p50 = p(&plain.lat.write_us, 500);
    let explained =
        (rtt - engine.serve_read_us) + engine.accept_write_us + (encode_ns + decode_ns) / 1e3;
    m.insert(
        "budget.coverage_frac",
        if write_p50 > 0.0 {
            explained / write_p50
        } else {
            0.0
        },
    );
    m.insert("budget.unexplained_us", write_p50 - explained);

    Ok(RunResult {
        attempted: attempted + traced.lat.attempted + traced.cap.attempted,
        failed: plain.lat.errors() + plain.cap.errors() + traced.lat.errors() + traced.cap.errors(),
        metrics: m,
        absent,
        repeats: 1,
    })
}

/// Appends one run to a results file (JSON Lines): the contract's
/// result object plus what identifies the run and the machine.
///
/// # Errors
///
/// The file could not be opened or written.
pub fn append(
    path: &Path,
    workload: &str,
    seed: u64,
    trace: bool,
    scale: &Scale,
    result: &RunResult,
    defs: &[MetricDef],
) -> std::io::Result<()> {
    use std::io::Write;
    let tool = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let line = Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        ("trace", Json::Num(f64::from(u8::from(trace)))),
        ("tiny", Json::Bool(scale.tiny)),
        ("repeats", Json::Num(result.repeats as f64)),
        (
            "machine",
            Json::obj([
                ("cores", Json::Num(cores as f64)),
                ("os", Json::str(std::env::consts::OS)),
                ("arch", Json::str(std::env::consts::ARCH)),
                ("rustc", Json::str(tool("rustc", &["--version"]))),
                ("commit", Json::str(tool("git", &["rev-parse", "HEAD"]))),
            ]),
        ),
        ("result", result.to_json(defs)),
    ]);
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{line}")
}
