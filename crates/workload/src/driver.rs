//! The workload driver: schedules client operations against a
//! [`GlobeSim`] in virtual time and reports latency, staleness, and
//! traffic.

use std::collections::BTreeMap;
use std::time::Duration;

use globe_core::{CallError, ClientHandle, GlobeRuntime, GlobeSim, MethodKind, RequestId};
use globe_web::{methods, Page};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{staleness, Arrival, LatencySummary, StalenessSummary, Zipf};

/// Parameters of one workload run.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// How long clients issue operations (virtual time).
    pub duration: Duration,
    /// Extra time after the last operation for propagation to settle.
    pub drain: Duration,
    /// Number of distinct pages in the document.
    pub pages: usize,
    /// Zipf skew of page popularity.
    pub zipf_theta: f64,
    /// Bytes written per write operation.
    pub page_bytes: usize,
    /// Incremental updates (`patch_page`) vs overwrites (`put_page`).
    pub incremental: bool,
    /// Arrival process of each reader.
    pub reader_arrival: Arrival,
    /// Arrival process of each writer.
    pub writer_arrival: Arrival,
    /// Seed for schedules and page choices.
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            duration: Duration::from_secs(60),
            drain: Duration::from_secs(10),
            pages: 8,
            zipf_theta: 0.8,
            page_bytes: 512,
            incremental: true,
            reader_arrival: Arrival::Poisson(1.0),
            writer_arrival: Arrival::Poisson(0.2),
            seed: 1,
        }
    }
}

/// Aggregated results of one workload run.
#[derive(Debug, Clone, Default)]
pub struct WorkloadOutcome {
    /// Reads issued.
    pub reads_issued: usize,
    /// Reads completed with a value.
    pub reads_completed: usize,
    /// Writes issued.
    pub writes_issued: usize,
    /// Writes acknowledged.
    pub writes_completed: usize,
    /// Read latency percentiles.
    pub read_latency: LatencySummary,
    /// Write (ack) latency percentiles.
    pub write_latency: LatencySummary,
    /// Staleness of reads against issued writes.
    pub staleness: StalenessSummary,
    /// Total coherence messages sent.
    pub messages: u64,
    /// Total coherence payload bytes sent.
    pub bytes: u64,
    /// Messages by protocol kind.
    pub traffic: BTreeMap<&'static str, (u64, u64)>,
    /// Virtual time consumed by the run.
    pub elapsed: Duration,
}

impl WorkloadOutcome {
    /// Messages per completed operation.
    pub fn messages_per_op(&self) -> f64 {
        let ops = (self.reads_completed + self.writes_completed).max(1);
        self.messages as f64 / ops as f64
    }

    /// Bytes per completed operation.
    pub fn bytes_per_op(&self) -> f64 {
        let ops = (self.reads_completed + self.writes_completed).max(1);
        self.bytes as f64 / ops as f64
    }
}

/// Runs `spec` against an already-built simulation with bound reader and
/// writer handles, and analyses the outcome.
///
/// The merged arrival schedule of every reader and writer replays on
/// the caller's thread, running the simulator forward to each
/// operation's instant. Latency and completion counts come from the
/// runtime's own metrics (virtual-time samples), traffic and staleness
/// from its metrics and history; the store digests are finalized for
/// the coherence checkers that typically follow a run.
pub fn run_workload(
    sim: &mut GlobeSim,
    readers: &[ClientHandle],
    writers: &[ClientHandle],
    spec: &WorkloadSpec,
) -> WorkloadOutcome {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let zipf = Zipf::new(spec.pages.max(1), spec.zipf_theta);
    let metrics_before = {
        let m = sim.metrics();
        let m = m.lock();
        (m.ops.len(), m.traffic.clone())
    };

    // Build the merged operation schedule.
    let mut schedule: Vec<(Duration, usize, MethodKind)> = Vec::new();
    for (index, _) in readers.iter().enumerate() {
        for at in spec.reader_arrival.schedule(&mut rng, spec.duration) {
            schedule.push((at, index, MethodKind::Read));
        }
    }
    for (index, _) in writers.iter().enumerate() {
        for at in spec.writer_arrival.schedule(&mut rng, spec.duration) {
            schedule.push((at, index, MethodKind::Write));
        }
    }
    schedule.sort_by_key(|(at, index, kind)| (*at, *index, *kind == MethodKind::Read));

    // Virtual time consumed since the start of the run.
    let mut cursor = Duration::ZERO;
    let mut advance_to = |sim: &mut GlobeSim, target: Duration| {
        if target > cursor {
            sim.run_for(target - cursor);
            cursor = target;
        }
    };

    let mut pending: Vec<(ClientHandle, RequestId)> = Vec::new();
    let mut reads_issued = 0usize;
    let mut writes_issued = 0usize;
    let mut write_counter = 0u64;
    for (at, index, kind) in schedule {
        advance_to(sim, at);
        let page = format!("page{:03}", zipf.sample(&mut rng));
        match kind {
            MethodKind::Read => {
                let handle = readers[index];
                if let Ok(req) = sim.issue_read(&handle, methods::get_page(&page)) {
                    pending.push((handle, req));
                    reads_issued += 1;
                }
            }
            MethodKind::Write => {
                let handle = writers[index];
                write_counter += 1;
                // Fixed-size body stamped with the write counter.
                let mut body = format!("[w{write_counter}]").into_bytes();
                body.resize(spec.page_bytes.max(body.len()), b'x');
                let inv = if spec.incremental {
                    methods::patch_page(&page, &body)
                } else {
                    methods::put_page(&page, &Page::html(body))
                };
                if let Ok(req) = sim.issue_write(&handle, inv) {
                    pending.push((handle, req));
                    writes_issued += 1;
                }
            }
        }
        let _ = rng.random::<u32>(); // decorrelate successive choices
    }
    advance_to(sim, spec.duration);
    advance_to(sim, spec.duration + spec.drain);

    // Collect any still-unclaimed results (each poll also lets the
    // runtime make a little progress, per the trait's contract).
    for (handle, req) in pending {
        let _ = sim.result(&handle, req);
    }

    // Latency and completion counts from metrics samples.
    let metrics = sim.metrics();
    let metrics = metrics.lock();
    let mut read_samples = Vec::new();
    let mut write_samples = Vec::new();
    for op in &metrics.ops[metrics_before.0..] {
        match op.kind {
            MethodKind::Read => read_samples.push(op.latency()),
            MethodKind::Write => write_samples.push(op.latency()),
        }
    }
    let mut traffic: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    let mut messages = 0u64;
    let mut bytes = 0u64;
    for (kind, count) in &metrics.traffic {
        let before = metrics_before.1.get(kind).copied().unwrap_or_default();
        let delta_count = count.count - before.count;
        let delta_bytes = count.bytes - before.bytes;
        if delta_count > 0 {
            traffic.insert(kind, (delta_count, delta_bytes));
            messages += delta_count;
            bytes += delta_bytes;
        }
    }
    drop(metrics);

    let history = sim.history();
    let staleness_summary = staleness(&history.lock());

    sim.finalize_digests();
    WorkloadOutcome {
        reads_issued,
        reads_completed: read_samples.len(),
        writes_issued,
        writes_completed: write_samples.len(),
        read_latency: LatencySummary::of(read_samples),
        write_latency: LatencySummary::of(write_samples),
        staleness: staleness_summary,
        messages,
        bytes,
        traffic,
        elapsed: cursor,
    }
}

/// Convenience: drives `n` sequential synchronous reads on any runtime
/// and returns the failures (used by smoke tests).
pub fn smoke_reads<R: GlobeRuntime>(
    rt: &mut R,
    handle: &ClientHandle,
    pages: &[String],
) -> Vec<(String, CallError)> {
    let mut failures = Vec::new();
    for page in pages {
        if let Err(e) = rt.handle(*handle).read(methods::get_page(page)) {
            failures.push((page.clone(), e));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use globe_coherence::StoreClass;
    use globe_core::{BindOptions, ObjectSpec, ReplicationPolicy};
    use globe_net::Topology;
    use globe_web::WebSemantics;

    use super::*;

    #[test]
    fn workload_runs_and_reports() {
        let mut sim = GlobeSim::new(Topology::lan(), 5);
        let server = sim.add_node();
        let cache = sim.add_node();
        let object = ObjectSpec::new("/w")
            .policy(ReplicationPolicy::magazine())
            .semantics(WebSemantics::new)
            .store(server, StoreClass::Permanent)
            .store(cache, StoreClass::ObjectInitiated)
            .create(&mut sim)
            .unwrap();
        let writer = sim
            .bind(object, server, BindOptions::new().read_node(server))
            .unwrap();
        let reader = sim
            .bind(object, cache, BindOptions::new().read_node(cache))
            .unwrap();
        let spec = WorkloadSpec {
            duration: Duration::from_secs(20),
            drain: Duration::from_secs(10),
            pages: 4,
            reader_arrival: Arrival::Poisson(2.0),
            writer_arrival: Arrival::Poisson(0.5),
            ..WorkloadSpec::default()
        };
        let outcome = run_workload(&mut sim, &[reader], &[writer], &spec);
        assert!(outcome.reads_issued > 10, "{outcome:?}");
        assert!(outcome.writes_issued > 2, "{outcome:?}");
        assert_eq!(outcome.reads_completed, outcome.reads_issued);
        assert_eq!(outcome.writes_completed, outcome.writes_issued);
        assert!(outcome.messages > 0);
        assert!(outcome.read_latency.count > 0);
        assert!(outcome.messages_per_op() > 0.0);
        assert!(outcome.bytes_per_op() > 0.0);
    }

    #[test]
    fn identical_seeds_give_identical_outcomes() {
        let run = || {
            let mut sim = GlobeSim::new(Topology::wan(), 9);
            let server = sim.add_node();
            let cache = sim.add_node();
            let object = ObjectSpec::new("/w")
                .policy(ReplicationPolicy::magazine())
                .semantics(WebSemantics::new)
                .store(server, StoreClass::Permanent)
                .store(cache, StoreClass::ObjectInitiated)
                .create(&mut sim)
                .unwrap();
            let writer = sim
                .bind(object, server, BindOptions::new().read_node(server))
                .unwrap();
            let reader = sim
                .bind(object, cache, BindOptions::new().read_node(cache))
                .unwrap();
            let spec = WorkloadSpec {
                duration: Duration::from_secs(10),
                ..WorkloadSpec::default()
            };
            let o = run_workload(&mut sim, &[reader], &[writer], &spec);
            (
                o.reads_issued,
                o.writes_issued,
                o.messages,
                o.bytes,
                o.read_latency,
            )
        };
        assert_eq!(run(), run());
    }
}
