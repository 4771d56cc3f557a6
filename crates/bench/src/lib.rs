//! Experiment harness regenerating every table and figure of the paper.
//!
//! The ICDCS'98 paper's evaluation is a worked prototype rather than a
//! numbers section; this crate turns each of its tables, figures, and
//! explicit performance claims into an executable experiment:
//!
//! | artifact | binary |
//! |---|---|
//! | Table 1 (implementation parameters) | `table1_params` |
//! | Table 2 + Figs. 3–4 (conference page) | `table2_conference` |
//! | Fig. 1 (object across address spaces) | `fig1_binding` |
//! | Fig. 2 (layered store model) | `fig2_layers` |
//! | §3.2 model cost claims | `models_compare` |
//! | §4.2 reliability-from-coherence | `reliability_pram` |
//! | §5 self-adaptive policies (ablation) | `adaptive` |
//! | replica kill → first consistent read | `recovery_latency` |
//! | load-engine saturation sweep per backend | `saturate` |
//!
//! Run any of them with `cargo run -p globe-bench --release --bin <name>`.
//! Criterion micro-benchmarks live under `benches/`. `recovery_latency`
//! and `saturate` additionally emit machine-readable trajectories
//! (`BENCH_recovery.json`, `BENCH_saturate.json`; see [`json`]) and
//! accept `--smoke` for the quick CI configuration.

#![warn(missing_docs)]

mod experiment;
pub mod json;
mod table;

pub use experiment::{compare, outcome_row, Config, OUTCOME_COLUMNS};
pub use table::{fmt_bytes, fmt_duration, fmt_f64, Table};

/// Whether `--smoke` was passed (or `BENCH_SMOKE=1` set): bench bins
/// then run a reduced configuration suitable for CI.
pub fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--smoke")
        || std::env::var("BENCH_SMOKE")
            .map(|v| v == "1")
            .unwrap_or(false)
}

/// The `--out <path>` argument, if given.
pub fn out_path_arg() -> Option<String> {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == "--out" {
            return args.next();
        }
    }
    None
}
