//! `globe-bench`: run one workload (or all five) and print every metric
//! by name and unit; the last line of standard output is the result
//! object `BENCHMARK.json`'s contract asks for.

use globe_bench_suite::harness::{cli, proc::CountingAlloc};

// Installed here and nowhere else: no library crate and no other binary
// changes behaviour by linking the harness. Counting is off until a
// traced run switches it on.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> std::process::ExitCode {
    cli::main(std::env::args().skip(1).collect())
}
