//! The names the benchmark is known by: workloads and metrics.
//!
//! `BENCHMARK.json` at the repository root repeats these lists for the
//! driver; the self-test (`tests/selftest.rs`) fails when the two
//! disagree, so a metric cannot be printed under one name and bounded
//! under another.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (latencies, costs).
    Lower,
    /// Larger is better (rates, ratios of useful work).
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's identity.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Printed name.
    pub name: &'static str,
    /// Printed unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// For end-to-end metrics: the share of the parent's median by
    /// which the metric may worsen. Zero for per-layer metrics, which
    /// explain and are not gated.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// The five workloads, in report order. Names are final: later issues
/// cite them.
pub const WORKLOADS: [&str; 5] = [
    "sim_policy_sweep",
    "shard_write_fanout",
    "shard_read_mostly",
    "tcp_web_mix",
    "tcp_durable_failover",
];

use Better::{Higher, Lower};

/// What a user of the system sees; every workload reports every one.
///
/// The wall-clock bounds are the widest the contract allows, because
/// that is what this two-core sandbox supports: even the single-threaded
/// simulator's `ops_s` spreads 9 % between runs of the same code, and
/// minute-long episodes of outside interference shift a run by 20–30 %.
/// The tail is p90, not p99: p99 was measured (it is still printed per
/// layer as `client.lat_*_p99_us`) and spread 12–120 % between sets of
/// ten runs, where p90 held to 8–16 %.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_s", "1/s", Higher, 0.25),
    e2e("write_p50_us", "us", Lower, 0.25),
    e2e("write_p90_us", "us", Lower, 0.25),
    e2e("read_p50_us", "us", Lower, 0.25),
    e2e("read_p90_us", "us", Lower, 0.25),
    e2e("msgs_per_op", "count", Lower, 0.02),
    e2e("wire_bytes_per_op", "B", Lower, 0.05),
    e2e("rss_mb", "MiB", Lower, 0.25),
];

/// What each layer did, timed from the benchmark's own files; printed
/// by `--trace 1`. No bounds: these explain an end-to-end change.
pub const PER_LAYER: &[MetricDef] = &[
    // wire codec (globe-wire, core::messages)
    layer("wire.encode_ns.update_256", "ns", Lower),
    layer("wire.decode_ns.update_256", "ns", Lower),
    layer("wire.encode_ns.update_1k", "ns", Lower),
    layer("wire.decode_ns.update_1k", "ns", Lower),
    layer("wire.encode_ns.read_req", "ns", Lower),
    layer("wire.decode_ns.read_reply_1k", "ns", Lower),
    layer("wire.frame_bytes.update_256", "B", Lower),
    // storage (core::storage)
    layer("storage.mem_append_ns", "ns", Lower),
    layer("storage.wal_append_ns", "ns", Lower),
    layer("storage.wal_bytes_per_write", "B", Lower),
    layer("storage.checkpoint_us", "us", Lower),
    layer("storage.truncate_us", "us", Lower),
    layer("storage.recover_us", "us", Lower),
    // semantics (globe-web)
    layer("semantics.put_ns", "ns", Lower),
    layer("semantics.get_ns", "ns", Lower),
    layer("semantics.snapshot_us", "us", Lower),
    // protocol engine (core::store_engine), driven by hand
    layer("engine.accept_write_us", "us", Lower),
    layer("engine.accept_write_self_us", "us", Lower),
    layer("engine.apply_update_us", "us", Lower),
    layer("engine.serve_read_us", "us", Lower),
    layer("engine.sends_per_write", "count", Lower),
    layer("engine.bytes_per_write", "B", Lower),
    layer("engine.write_cost_growth", "ratio", Lower),
    layer("engine.residual_us", "us", Lower),
    // coherence recording and checking (globe-coherence)
    layer("coherence.record_ns", "ns", Lower),
    layer("coherence.history_entries_per_op", "count", Lower),
    layer("coherence.check_ms", "ms", Lower),
    layer("coherence.stale_read_frac", "ratio", Lower),
    // client plane (core::control / session through EnginePort)
    layer("port.issue_us_p50", "us", Lower),
    layer("port.issue_us_p99", "us", Lower),
    layer("port.poll_us_p50", "us", Lower),
    layer("port.poll_hit_ratio", "ratio", Higher),
    // program counters (core::metrics)
    layer("metrics.msgs_per_op", "count", Lower),
    layer("metrics.bytes_per_op", "B", Lower),
    layer("metrics.flushes_per_write", "count", Lower),
    layer("metrics.batch_occupancy", "count", Higher),
    layer("metrics.lease_hit_ratio", "ratio", Higher),
    layer("metrics.transport_faults", "count", Lower),
    layer("metrics.ops_dropped", "count", Lower),
    // flight recorder (core::trace)
    layer("trace.order_to_apply_us", "us", Lower),
    layer("trace.apply_to_ack_us", "us", Lower),
    layer("trace.events_per_write", "count", Lower),
    layer("trace.dropped", "count", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
    layer("trace.checker_violations", "count", Lower),
    // transports (globe-net)
    layer("net.sim_step_ns", "ns", Lower),
    layer("net.tcp_rtt_us", "us", Lower),
    layer("net.tcp_send_ns", "ns", Lower),
    layer("net.timer_arm_ns", "ns", Lower),
    // runtimes (core::{runtime, shard_runtime, tcp_runtime}), null op
    layer("sim.rtt_wall_us", "us", Lower),
    layer("shard.rtt_us", "us", Lower),
    layer("tcp.rtt_us", "us", Lower),
    layer("shard.hop_us", "us", Lower),
    layer("tcp.hop_us", "us", Lower),
    layer("shard.two_lane_speedup", "ratio", Higher),
    // process and allocator
    layer("proc.cpu_user_us_per_op", "us", Lower),
    layer("proc.cpu_sys_us_per_op", "us", Lower),
    layer("proc.vol_ctx_per_op", "count", Lower),
    layer("proc.invol_ctx_per_op", "count", Lower),
    layer("alloc.count_per_op", "count", Lower),
    layer("alloc.bytes_per_op", "B", Lower),
    // load generator
    layer("client.cap_write_p50_us", "us", Lower),
    layer("client.cap_write_p99_us", "us", Lower),
    layer("client.cap_read_p99_us", "us", Lower),
    layer("client.lat_write_p99_us", "us", Lower),
    layer("client.lat_read_p99_us", "us", Lower),
    layer("client.error_frac", "ratio", Lower),
    layer("gen.late_p99_us", "us", Lower),
    layer("gen.busy_frac", "ratio", Lower),
    // fail-over and recovery (the tcp_durable_failover drill, traced)
    layer("failover.outage_ms", "ms", Lower),
    layer("failover.detect_ms", "ms", Lower),
    layer("failover.elect_ms", "ms", Lower),
    layer("failover.first_write_ms", "ms", Lower),
    layer("failover.recover_ms", "ms", Lower),
    layer("failover.disk_amp", "ratio", Lower),
    layer("recover.delta_entries", "count", Lower),
    layer("recover.full_transfers", "count", Lower),
    // set-up (naming, core::plan)
    layer("setup.create_object_us", "us", Lower),
    layer("setup.bind_us", "us", Lower),
    layer("setup.start_ms", "ms", Lower),
    layer("setup.preload_ms", "ms", Lower),
    // sim_policy_sweep, one figure per leg
    layer("sim.us_per_op.sequential", "us", Lower),
    layer("sim.us_per_op.pram", "us", Lower),
    layer("sim.us_per_op.fifo", "us", Lower),
    layer("sim.us_per_op.causal", "us", Lower),
    layer("sim.us_per_op.eventual", "us", Lower),
    layer("sim.us_per_op.conference", "us", Lower),
    layer("sim.us_per_op.magazine", "us", Lower),
    // the per-write budget: how much of write_p50_us the layers explain
    layer("budget.coverage_frac", "ratio", Higher),
    layer("budget.unexplained_us", "us", Lower),
];

/// Looks a metric up in either list.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}
