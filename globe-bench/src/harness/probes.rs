//! Isolated layer probes: each calls one layer's public functions in a
//! loop, with the inputs the workloads send, and reports the cost per
//! call. Nothing here reaches inside the program; the spans are this
//! file's own `Instant`s around the public calls.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use globe_coherence::{ClientId, ObjectModel, StoreClass, StoreId, VersionVector, WriteId};
use globe_core::lifecycle::DetectorConfig;
use globe_core::storage::StorageSpec;
use globe_core::{
    shared_history, shared_metrics, CallOutcome, CheckpointImage, CoherenceMsg, DurableBackend,
    LoggedWrite, MemoryBackend, NetMsg, PeerStore, RequestId, Semantics, StoreBackend, StoreConfig,
    StoreReplica, StoreTuning,
};
use globe_naming::ObjectId;
use globe_net::tcp::TcpMesh;
use globe_net::timer::WallTimer;
use globe_net::{Event, NetCtx, NodeId, SimNet, SimTime, TimerId, TimerToken, Topology};
use globe_web::{methods, Page};

use super::gen::{self, PAGES};
use super::stats;
use super::workloads::{dir_bytes, immediate, sample_document};

/// Mean nanoseconds per call of `f`, as the median over five batches of
/// `iters / 5` calls — one slow batch (a scheduler tick) cannot move it.
fn time_ns(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let batch = (iters / 5).max(1);
    let mut means = Vec::with_capacity(5);
    let mut i = 0;
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..batch {
            f(i);
            i += 1;
        }
        means.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    stats::median(&means).unwrap_or(0.0)
}

fn wid(seq: u64) -> WriteId {
    WriteId::new(ClientId::new(1), seq)
}

/// Write number `seq` as the home forwards it: page attributed, no
/// dependencies (the FIFO model attaches none).
fn logged_write(seq: u64, body_bytes: usize) -> LoggedWrite {
    let page = (seq as usize) % PAGES;
    let name = gen::page_name(page);
    LoggedWrite {
        wid: wid(seq),
        inv: methods::put_page(&name, &Page::html(gen::body(seq, body_bytes))),
        deps: VersionVector::new(),
        page: Some(name),
        order: None,
    }
}

fn update_frame(body_bytes: usize) -> NetMsg {
    NetMsg {
        object: ObjectId::new(1),
        msg: CoherenceMsg::Update {
            write: logged_write(12_345, body_bytes),
        },
    }
}

/// The wire codec on the frames the workloads send.
pub struct WireProbe {
    /// `to_bytes` of an `Update` carrying a 256-byte page, ns.
    pub encode_update_256: f64,
    /// `from_bytes` of the same, ns.
    pub decode_update_256: f64,
    /// `to_bytes` of an `Update` carrying a 1 KiB page, ns.
    pub encode_update_1k: f64,
    /// `from_bytes` of the same, ns.
    pub decode_update_1k: f64,
    /// `to_bytes` of a `get_page` `ReadReq`, ns.
    pub encode_read_req: f64,
    /// `from_bytes` of a `Reply` carrying a 1 KiB page, ns.
    pub decode_read_reply_1k: f64,
    /// Encoded size of the 256-byte `Update`, bytes.
    pub frame_bytes_update_256: f64,
}

/// Times `globe_wire::to_bytes` / `from_bytes::<NetMsg>`.
pub fn wire(iters: usize) -> WireProbe {
    let encode = |msg: &NetMsg| {
        time_ns(iters, |_| {
            drop(black_box(globe_wire::to_bytes(black_box(msg))))
        })
    };
    let decode = |msg: &NetMsg| {
        let bytes = globe_wire::to_bytes(msg);
        time_ns(iters, |_| {
            drop(black_box(globe_wire::from_bytes::<NetMsg>(black_box(
                &bytes,
            ))))
        })
    };
    let read_req = NetMsg {
        object: ObjectId::new(1),
        msg: CoherenceMsg::ReadReq {
            req: RequestId::new(77),
            client: ClientId::new(1),
            inv: methods::get_page(&gen::page_name(3)),
            min_version: VersionVector::new(),
        },
    };
    let reply = NetMsg {
        object: ObjectId::new(1),
        msg: CoherenceMsg::Reply {
            req: RequestId::new(77),
            outcome: CallOutcome::Ok(globe_wire::to_bytes(&Some(Page::html(gen::body(9, 1024))))),
            version: [(ClientId::new(1), 9u64)].into_iter().collect(),
            sees: Some(wid(9)),
            full_state: None,
        },
    };
    let (u256, u1k) = (update_frame(256), update_frame(1024));
    WireProbe {
        encode_update_256: encode(&u256),
        decode_update_256: decode(&u256),
        encode_update_1k: encode(&u1k),
        decode_update_1k: decode(&u1k),
        encode_read_req: encode(&read_req),
        decode_read_reply_1k: decode(&reply),
        frame_bytes_update_256: globe_wire::to_bytes(&u256).len() as f64,
    }
}

/// The storage backends under 1 KiB writes.
pub struct StorageProbe {
    /// `MemoryBackend::append`, ns.
    pub mem_append_ns: f64,
    /// `DurableBackend::append` (WAL write, no sync), ns.
    pub wal_append_ns: f64,
    /// WAL bytes on disk per appended write.
    pub wal_bytes_per_write: f64,
    /// `DurableBackend::checkpoint` of a 16-page document, µs.
    pub checkpoint_us: f64,
    /// `DurableBackend::truncate_covered` of the whole log, µs.
    pub truncate_us: f64,
    /// `DurableBackend::open` + `take_recovery` over the same log, µs.
    pub recover_us: f64,
}

/// Times `MemoryBackend` / `DurableBackend` over `writes` 1 KiB
/// `LoggedWrite`s, in `dir`.
///
/// # Errors
///
/// An I/O failure opening the durable backend.
pub fn storage(writes: usize, dir: &Path) -> Result<StorageProbe, String> {
    let log: Vec<LoggedWrite> = (1..=writes as u64).map(|s| logged_write(s, 1024)).collect();
    let mut mem = MemoryBackend::new();
    let mem_append_ns = time_ns(writes, |i| mem.append(&log[i % log.len()]));

    let (object, store) = (ObjectId::new(1), StoreId::new(0));
    let open = || DurableBackend::open(dir, object, store).map_err(|e| format!("open WAL: {e}"));
    let mut wal = open()?;
    let t = Instant::now();
    for write in &log {
        wal.append(write);
    }
    let wal_append_ns = t.elapsed().as_nanos() as f64 / writes.max(1) as f64;
    let on_disk = dir_bytes(dir);

    let image = CheckpointImage {
        version: [(ClientId::new(1), writes as u64)].into_iter().collect(),
        state: sample_document(1024).snapshot(),
        writers: (0..PAGES)
            .map(|p| (gen::page_name(p), wid(p as u64 + 1)))
            .collect(),
        order_high: None,
    };
    // Recovery first, while the log is whole: reopen what a crash
    // would have left (everything appended, one checkpoint).
    wal.checkpoint(&image);
    drop(wal);
    let t = Instant::now();
    let mut wal = open()?;
    let recovered = wal.take_recovery().map_or(0, |r| r.log.len());
    let recover_us = t.elapsed().as_secs_f64() * 1e6;
    if recovered != writes {
        return Err(format!("recovered {recovered} of {writes} logged writes"));
    }

    let t = Instant::now();
    wal.checkpoint(&image);
    let checkpoint_us = t.elapsed().as_secs_f64() * 1e6;
    let t = Instant::now();
    let dropped = wal.truncate_covered(&image.version);
    let truncate_us = t.elapsed().as_secs_f64() * 1e6;
    if dropped != writes {
        return Err(format!("truncated {dropped} of {writes} covered writes"));
    }
    Ok(StorageProbe {
        mem_append_ns,
        wal_append_ns,
        wal_bytes_per_write: on_disk as f64 / writes.max(1) as f64,
        checkpoint_us,
        truncate_us,
        recover_us,
    })
}

/// `WebSemantics` on a 16-page document.
pub struct SemanticsProbe {
    /// `dispatch(put_page)`, ns.
    pub put_ns: f64,
    /// `dispatch(get_page)`, ns.
    pub get_ns: f64,
    /// `snapshot()`, µs.
    pub snapshot_us: f64,
}

/// Times `Semantics::dispatch` and `snapshot` with `body_bytes` pages.
pub fn semantics(iters: usize, body_bytes: usize) -> SemanticsProbe {
    let mut sem = sample_document(body_bytes);
    let puts: Vec<_> = (0..PAGES as u64)
        .map(|s| logged_write(s + 1, body_bytes).inv)
        .collect();
    let gets: Vec<_> = (0..PAGES)
        .map(|p| methods::get_page(&gen::page_name(p)))
        .collect();
    let put_ns = time_ns(iters, |i| drop(black_box(sem.dispatch(&puts[i % PAGES]))));
    let get_ns = time_ns(iters, |i| drop(black_box(sem.dispatch(&gets[i % PAGES]))));
    let snapshot_us = time_ns(iters.div_ceil(10), |_| drop(black_box(sem.snapshot()))) / 1e3;
    SemanticsProbe {
        put_ns,
        get_ns,
        snapshot_us,
    }
}

/// The harness's own `NetCtx`: counts what the engine sends, keeps the
/// frames bound for one peer, and times its own callbacks so they can
/// be subtracted as child spans.
struct CountingCtx {
    node: NodeId,
    sends: u64,
    bytes: u64,
    /// Time spent inside this context's callbacks, ns.
    child_ns: u64,
    /// Frames sent to `keep_for`, up to `keep_max`.
    kept: Vec<Bytes>,
    keep_for: Option<NodeId>,
    keep_max: usize,
    /// `TimerId` has no public constructor; a stopped `WallTimer` mints
    /// inert ones without queueing anything.
    ids: Arc<WallTimer>,
}

impl CountingCtx {
    fn new(node: NodeId) -> Self {
        let ids = WallTimer::spawn();
        ids.stop();
        CountingCtx {
            node,
            sends: 0,
            bytes: 0,
            child_ns: 0,
            kept: Vec::new(),
            keep_for: None,
            keep_max: 0,
            ids,
        }
    }
}

impl NetCtx for CountingCtx {
    fn node(&self) -> NodeId {
        self.node
    }
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }
    fn send(&mut self, to: NodeId, payload: Bytes) {
        let t = Instant::now();
        self.sends += 1;
        self.bytes += payload.len() as u64;
        if self.keep_for == Some(to) && self.kept.len() < self.keep_max {
            self.kept.push(payload);
        }
        self.child_ns += t.elapsed().as_nanos() as u64;
    }
    fn set_timer(&mut self, delay: Duration, _token: TimerToken) -> TimerId {
        let t = Instant::now();
        let id = self.ids.arm(delay, || {});
        self.child_ns += t.elapsed().as_nanos() as u64;
        id
    }
    fn cancel_timer(&mut self, _id: TimerId) {}
}

/// `StoreReplica` driven by hand, as `crates/core/tests/store_unit.rs`
/// does.
pub struct EngineProbe {
    /// `accept_write` at a home with three permanent peers, µs.
    pub accept_write_us: f64,
    /// The same minus the time inside the harness's `NetCtx` callbacks.
    pub accept_write_self_us: f64,
    /// A mirror handling the home's `Update`, µs.
    pub apply_update_us: f64,
    /// `serve_read` at that mirror, µs.
    pub serve_read_us: f64,
    /// Frames the home sent per write.
    pub sends_per_write: f64,
    /// Payload bytes the home sent per write.
    pub bytes_per_write: f64,
    /// Cost of the last thousand of `growth_writes` writes ÷ cost of
    /// the first thousand after warm-up: how per-write cost grows with
    /// history length.
    pub write_cost_growth: f64,
}

fn replica(
    store: u32,
    is_home: bool,
    peers: Vec<PeerStore>,
    home_node: NodeId,
    body_bytes: usize,
) -> StoreReplica {
    StoreReplica::new(StoreConfig {
        object: ObjectId::new(1),
        store_id: StoreId::new(store),
        class: StoreClass::Permanent,
        policy: immediate(ObjectModel::Fifo),
        home_node,
        home_store: StoreId::new(0),
        is_home,
        peers,
        semantics: Box::new(sample_document(body_bytes)),
        history: shared_history(),
        metrics: shared_metrics(),
        detector: DetectorConfig::disabled(),
        tuning: StoreTuning::default(),
        storage: StorageSpec::default(),
    })
}

/// Times the engine's write, apply and read paths. `writes` sizes the
/// steady-state figures, `growth_writes` (≥ `writes`) the growth ratio.
pub fn engine(writes: usize, growth_writes: usize, body_bytes: usize) -> EngineProbe {
    let nodes: Vec<NodeId> = (0..5).map(NodeId::new).collect();
    let (home_node, client_node) = (nodes[0], nodes[4]);
    let peers: Vec<PeerStore> = (1..=3)
        .map(|i| PeerStore {
            node: nodes[i],
            store: StoreId::new(i as u32),
            class: StoreClass::Permanent,
        })
        .collect();
    let mut home = replica(0, true, peers, home_node, body_bytes);
    let mut ctx = CountingCtx::new(home_node);
    ctx.keep_for = Some(nodes[1]);
    ctx.keep_max = writes;

    let client = ClientId::new(1);
    let total = growth_writes.max(writes).max(2_000);
    let mut per_thousand: Vec<(f64, f64)> = Vec::new(); // (span µs, self µs) per write
    let mut seq = 0u64;
    while (seq as usize) < total {
        let batch = 1_000.min(total - seq as usize);
        // Build the inputs outside the span.
        let inputs: Vec<LoggedWrite> = (0..batch)
            .map(|i| {
                let s = seq + i as u64 + 1;
                let mut w = logged_write(s, body_bytes);
                w.page = None; // as a client proxy submits it
                w
            })
            .collect();
        let child0 = ctx.child_ns;
        let t = Instant::now();
        for (i, write) in inputs.into_iter().enumerate() {
            let req = RequestId::new(seq + i as u64 + 1);
            home.accept_write(Some((client_node, req, client)), write, &mut ctx);
        }
        let span = t.elapsed().as_nanos() as f64;
        let child = (ctx.child_ns - child0) as f64;
        per_thousand.push((
            span / batch as f64 / 1e3,
            (span - child) / batch as f64 / 1e3,
        ));
        seq += batch as u64;
    }
    let steady = &per_thousand[..(writes / 1_000).clamp(1, per_thousand.len())];
    let med = |f: fn(&(f64, f64)) -> f64| {
        stats::median(&steady.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    // Batch 0 is warm-up (cold caches, first allocations).
    let early = per_thousand.get(1).map_or(0.0, |p| p.0);
    let late = per_thousand.last().map_or(0.0, |p| p.0);

    // The mirror applies exactly the frames the home produced.
    let mut mirror = replica(1, false, Vec::new(), home_node, body_bytes);
    let mut mirror_ctx = CountingCtx::new(nodes[1]);
    let updates: Vec<LoggedWrite> = ctx
        .kept
        .iter()
        .filter_map(
            |frame| match globe_wire::from_bytes::<NetMsg>(frame).ok()?.msg {
                CoherenceMsg::Update { write } => Some(write),
                _ => None,
            },
        )
        .collect();
    let applied = updates.len().max(1);
    let t = Instant::now();
    for write in updates {
        mirror.accept_write(None, write, &mut mirror_ctx);
    }
    let apply_update_us = t.elapsed().as_secs_f64() * 1e6 / applied as f64;

    let gets: Vec<_> = (0..PAGES)
        .map(|p| methods::get_page(&gen::page_name(p)))
        .collect();
    let serve_read_ns = time_ns(writes, |i| {
        mirror.serve_read(
            client_node,
            RequestId::new(i as u64),
            client,
            gets[i % PAGES].clone(),
            VersionVector::new(),
            &mut mirror_ctx,
        );
    });

    EngineProbe {
        accept_write_us: med(|p| p.0),
        accept_write_self_us: med(|p| p.1),
        apply_update_us,
        serve_read_us: serve_read_ns / 1e3,
        sends_per_write: ctx.sends as f64 / total as f64,
        bytes_per_write: ctx.bytes as f64 / total as f64,
        write_cost_growth: if early > 0.0 { late / early } else { 0.0 },
    }
}

/// `SharedHistory.lock().record_apply / record_read`, ns per record.
pub fn coherence_record_ns(iters: usize) -> f64 {
    let history = shared_history();
    let version: VersionVector = [(ClientId::new(1), 5u64)].into_iter().collect();
    let names: Vec<String> = (0..PAGES).map(gen::page_name).collect();
    time_ns(iters, |i| {
        let mut h = history.lock();
        if i % 2 == 0 {
            h.record_apply(
                SimTime::ZERO,
                StoreId::new(0),
                wid(i as u64),
                names[i % PAGES].as_str(),
            );
        } else {
            h.record_read(
                SimTime::ZERO,
                ClientId::new(1),
                StoreId::new(1),
                names[i % PAGES].as_str(),
                Some(wid(i as u64)),
                version.clone(),
            );
        }
    })
}

/// The transports in isolation.
pub struct NetProbe {
    /// `SimNet::step` delivering one 256-byte message, ns.
    pub sim_step_ns: f64,
    /// Two `TcpMesh` endpoints echoing 1 KiB, median round trip, µs.
    pub tcp_rtt_us: f64,
    /// `TcpSender::send` of 1 KiB (the call alone), ns.
    pub tcp_send_ns: f64,
    /// `WallTimer::arm` + `cancel`, ns.
    pub timer_arm_ns: f64,
}

/// Times `SimNet::step`, a `TcpMesh` echo and `WallTimer::arm`.
///
/// # Errors
///
/// A socket that could not be bound, or an echo that never came back.
pub fn net(iters: usize) -> Result<NetProbe, String> {
    // Two simulated nodes bouncing one message back and forth: every
    // step delivers it once.
    let mut sim = SimNet::new(Topology::lan(), 1);
    let (a, b) = (sim.add_node(), sim.add_node());
    for (node, peer) in [(a, b), (b, a)] {
        sim.set_handler(node, move |event, ctx| {
            if let Event::Message { payload, .. } = event {
                ctx.send(peer, payload);
            }
        });
    }
    sim.with_ctx(a, |ctx| ctx.send(b, Bytes::from(vec![7u8; 256])));
    let sim_step_ns = time_ns(iters, |_| {
        black_box(sim.step());
    });

    let mesh = TcpMesh::new();
    let near = mesh.add_node().map_err(|e| format!("tcp endpoint: {e}"))?;
    let far = mesh.add_node().map_err(|e| format!("tcp endpoint: {e}"))?;
    let (near_id, far_id) = (near.node(), far.node());
    let echo = far
        .spawn_loop(move |event, ctx| {
            if let Event::Message { payload, .. } = event {
                ctx.send(near_id, payload);
            }
        })
        .map_err(|e| format!("echo thread: {e}"))?;
    let sender = near.sender();
    let payload = Bytes::from(vec![7u8; 1024]);
    let rounds = (iters / 10).max(20);
    let mut rtt_us = Vec::with_capacity(rounds);
    let mut send_ns = Vec::with_capacity(rounds);
    let mut failure = None;
    for _ in 0..rounds {
        let t = Instant::now();
        if let Err(e) = sender.send(far_id, payload.clone()) {
            failure = Some(format!("tcp send: {e}"));
            break;
        }
        send_ns.push(t.elapsed().as_nanos() as f64);
        // Spin on a zero timeout: a blocking receive would add a wake-up.
        let deadline = t + Duration::from_secs(5);
        loop {
            if near.recv_timeout(Duration::ZERO).is_some() {
                break;
            }
            if Instant::now() > deadline {
                failure = Some("tcp echo never came back".to_string());
                break;
            }
            std::hint::spin_loop();
        }
        if failure.is_some() {
            break;
        }
        rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    mesh.shutdown();
    let _ = echo.join();
    if let Some(e) = failure {
        return Err(e);
    }

    let timer = WallTimer::spawn();
    let timer_arm_ns = time_ns(iters, |_| {
        let id = timer.arm(Duration::from_secs(3600), || {});
        timer.cancel(id);
    });
    timer.stop();

    Ok(NetProbe {
        sim_step_ns,
        tcp_rtt_us: stats::median(&rtt_us).unwrap_or(0.0),
        tcp_send_ns: stats::median(&send_ns).unwrap_or(0.0),
        timer_arm_ns,
    })
}
