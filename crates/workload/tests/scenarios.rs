//! Every scenario preset in the library must build, run its default
//! workload, and leave a history that satisfies its object's coherence
//! model — the §1 document gallery as an executable regression suite.

use std::time::Duration;

use globe_coherence::{check, ObjectModel};
use globe_core::GlobeRuntime;
use globe_workload::{run_workload, scenario, WorkloadSpec};

fn shrink(spec: WorkloadSpec) -> WorkloadSpec {
    WorkloadSpec {
        duration: Duration::from_secs(20),
        drain: Duration::from_secs(10),
        ..spec
    }
}

fn run_and_check(
    built: (scenario::ScenarioInstance, WorkloadSpec),
    model: ObjectModel,
) -> globe_workload::WorkloadOutcome {
    let (mut instance, spec) = built;
    let spec = shrink(spec);
    let outcome = run_workload(
        &mut instance.sim,
        &instance.readers,
        &instance.writers,
        &spec,
    );
    assert!(outcome.reads_issued > 0, "{}: no reads", instance.name);
    assert_eq!(
        outcome.writes_completed, outcome.writes_issued,
        "{}: writes lost on a clean network",
        instance.name
    );
    let history = instance.sim.history();
    let history = history.lock();
    check::check_object_model(&history, model).unwrap_or_else(|v| panic!("{}: {v}", instance.name));
    outcome
}

#[test]
fn conference_page_scenario() {
    let outcome = run_and_check(scenario::conference_page(101).unwrap(), ObjectModel::Pram);
    // The master's RYW guard forces demand traffic or fresh pushes; the
    // lazy strategy keeps messages per op modest.
    assert!(outcome.messages_per_op() < 10.0, "{outcome:?}");
}

#[test]
fn personal_home_page_scenario() {
    let (instance, spec) = scenario::personal_home_page(102).unwrap();
    // Eventual model: run then verify convergence by digest.
    let mut instance = instance;
    let spec = shrink(spec);
    let _ = run_workload(
        &mut instance.sim,
        &instance.readers,
        &instance.writers,
        &spec,
    );
    instance.sim.run_for(Duration::from_secs(30)); // pull period is 10 s
    instance.sim.finalize_digests();
    let history = instance.sim.history();
    let history = history.lock();
    check::check_eventual(&history).expect("home page replicas converge");
}

#[test]
fn popular_event_scenario() {
    let outcome = run_and_check(scenario::popular_event(103).unwrap(), ObjectModel::Fifo);
    // Twelve readers against mirrors: reads dominate and stay local.
    assert!(outcome.reads_completed > outcome.writes_completed * 3);
}

#[test]
fn news_forum_scenario() {
    let (instance, spec) = scenario::news_forum(104).unwrap();
    let mut instance = instance;
    let spec = shrink(spec);
    let _ = run_workload(
        &mut instance.sim,
        &instance.readers,
        &instance.writers,
        &spec,
    );
    let history = instance.sim.history();
    let history = history.lock();
    check::check_causal(&history).expect("forum causality");
    // Writers carry the WFR guard; verify it held for each.
    for writer in &instance.writers {
        check::check_writes_follow_reads(&history, writer.client).expect("wfr for writer");
    }
    for reader in &instance.readers {
        check::check_monotonic_reads(&history, reader.client).expect("mr for reader");
    }
}

#[test]
fn whiteboard_scenario() {
    run_and_check(scenario::whiteboard(105).unwrap(), ObjectModel::Sequential);
}
