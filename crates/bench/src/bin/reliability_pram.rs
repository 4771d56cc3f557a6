//! CLAIM-4.2 — Reliability as a side-effect of the coherence model:
//! "we could have used UDP … and directly use the PRAM object-based model
//! to implement reliability. Then, simply by changing the object-outdate
//! reaction parameter from wait to demand, reliability comes as a
//! side-effect of the coherence model."
//!
//! This experiment runs PRAM over increasingly lossy, non-FIFO (UDP-like)
//! links with both outdate reactions and reports whether replicas
//! converge, how many writes went missing, and what the recovery traffic
//! cost.

use std::time::Duration;

use globe_bench::{fmt_bytes, Table};
use globe_coherence::StoreClass;
use globe_core::{
    BindOptions, GlobeRuntime, GlobeSim, ObjectSpec, OutdateReaction, ReplicationPolicy,
};
use globe_net::{LinkConfig, Topology};
use globe_web::{methods, WebSemantics};

const WRITES: u64 = 30;

struct RunResult {
    converged: bool,
    missing_at_worst_replica: u64,
    messages: u64,
    bytes: u64,
}

fn run(loss: f64, reaction: OutdateReaction, seed: u64) -> RunResult {
    let link = LinkConfig::new(Duration::from_millis(15))
        .with_loss(loss)
        .with_fifo(false); // datagram semantics
    let policy = ReplicationPolicy {
        object_outdate: reaction,
        ..ReplicationPolicy::builder(globe_coherence::ObjectModel::Pram)
            .immediate()
            .build()
            .expect("valid")
    };
    let mut sim = GlobeSim::new(Topology::uniform(link), seed);
    let server = sim.add_node();
    let caches = [sim.add_node(), sim.add_node()];
    let object = ObjectSpec::new("/udp/object")
        .policy(policy)
        .semantics(WebSemantics::new)
        .store(server, StoreClass::Permanent)
        .store(caches[0], StoreClass::ClientInitiated)
        .store(caches[1], StoreClass::ClientInitiated)
        .create(&mut sim)
        .expect("create");
    let master = sim
        .bind(object, server, BindOptions::new().read_node(server))
        .expect("bind");
    for i in 0..WRITES {
        let _ = sim.issue_write(
            &master,
            methods::patch_page("feed.html", format!("entry {i}; ").as_bytes()),
        );
        sim.run_for(Duration::from_millis(80));
    }
    sim.run_for(Duration::from_secs(90));

    let server_version = sim.store_version(object, server).expect("server version");
    let server_digest = sim.store_digest(object, server);
    let mut converged = server_version.get(master.client) == WRITES;
    let mut missing = WRITES - server_version.get(master.client);
    for cache in caches {
        let version = sim.store_version(object, cache).expect("cache version");
        let behind = WRITES.saturating_sub(version.get(master.client));
        missing = missing.max(behind);
        if sim.store_digest(object, cache) != server_digest || behind > 0 {
            converged = false;
        }
    }
    let stats = sim.net_stats();
    RunResult {
        converged,
        missing_at_worst_replica: missing,
        messages: stats.messages_sent,
        bytes: stats.bytes_sent,
    }
}

fn main() {
    println!(
        "Reproducing the §4.2 claim: PRAM ordering + demand reaction gives\n\
         reliability over lossy datagram links; wait does not. {WRITES} pipelined\n\
         writes from the Web master, two caches.\n"
    );
    let mut table = Table::new(
        "PRAM over lossy links: outdate reaction wait vs demand",
        &[
            "loss",
            "reaction",
            "converged",
            "missing writes",
            "msgs",
            "bytes",
        ],
    );
    for loss in [0.0, 0.05, 0.10, 0.20, 0.30] {
        for reaction in [OutdateReaction::Wait, OutdateReaction::Demand] {
            let result = run(loss, reaction, 77);
            table.row(vec![
                format!("{:.0}%", loss * 100.0),
                match reaction {
                    OutdateReaction::Wait => "wait".to_string(),
                    OutdateReaction::Demand => "demand".to_string(),
                },
                if result.converged { "yes" } else { "NO" }.to_string(),
                result.missing_at_worst_replica.to_string(),
                result.messages.to_string(),
                fmt_bytes(result.bytes),
            ]);
        }
    }
    println!("{table}");
}
