//! The repository's benchmark as a library, so its own tests can call
//! the generator, the statistics and the correctness checks directly.
//! The `globe-bench` binary is a thin `main` over [`harness::cli`].

pub mod harness;
