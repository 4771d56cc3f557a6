//! `globe-bench`: five named workloads against the public
//! `GlobeRuntime` / `EnginePort` surface, end-to-end metrics that
//! repeat, and a per-layer budget timed from outside. See `README.md`
//! in this package for what each metric means and how they interact.

pub mod checks;
pub mod cli;
pub mod compare;
pub mod gen;
pub mod json;
pub mod probes;
pub mod proc;
pub mod report;
pub mod spec;
pub mod stats;
pub mod workloads;
