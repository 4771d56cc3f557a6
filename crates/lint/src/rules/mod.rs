//! The three repo-specific rules. Each rule is a pure function from
//! lexed tokens to raw diagnostics; allow-comment suppression is
//! applied once per file by [`crate::scan::apply_allows`] after all
//! rules have run.

pub mod locks;
pub mod panics;
pub mod time;
