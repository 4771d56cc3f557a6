//! Ranked mutexes: the runtime's lock order, stated once in the types.
//!
//! Every mutex a fabric or the engine shares between threads carries a
//! rank, and a thread may only take a lock whose rank is above every
//! rank it already holds:
//!
//! | rank | lock | held by |
//! |---|---|---|
//! | 0 [`ENDPOINT`] | a caller-driven TCP endpoint | a pump, while it dispatches into the space |
//! | 1 [`LANE`] | a shard lane (its spaces and run queue) | whoever runs the lane to completion |
//! | 2 [`SPACE`] | a TCP address space | the node's event loop or a caller |
//! | 3 [`HISTORY`] | the recorded execution history | the engine, around one record |
//! | 4 [`METRICS`] | the metrics store | the engine, around one record |
//!
//! The locks inside `globe-net` (the wall timer's heap, the TCP mesh's
//! connection map) are not ranked: protocol code takes them last, under
//! a lane or a space, and nothing holding them calls back into the
//! engine — a timer's delivery closure only sends to a lane's inbox.
//!
//! Debug builds check the order: a thread-local bitmask of the ranks the
//! thread holds, consulted *before* blocking, so an inversion or a
//! re-entry panics with "lock order" instead of deadlocking. Release
//! builds compile the check out, and [`Ranked`] is then a plain
//! `parking_lot::Mutex`.

use std::fmt;
use std::ops::{Deref, DerefMut};

use parking_lot::{Mutex, MutexGuard};

/// Rank of a caller-driven TCP endpoint.
pub const ENDPOINT: u8 = 0;
/// Rank of a shard lane.
pub const LANE: u8 = 1;
/// Rank of a TCP node's address space.
pub const SPACE: u8 = 2;
/// Rank of the shared execution history.
pub const HISTORY: u8 = 3;
/// Rank of the shared metrics store.
pub const METRICS: u8 = 4;

/// A mutex with a place in the lock order; see the [module docs](self).
#[derive(Default)]
pub struct Ranked<T, const RANK: u8>(Mutex<T>);

/// Guard for [`Ranked::lock`]; releases the rank when dropped.
pub struct RankedGuard<'a, T, const RANK: u8>(MutexGuard<'a, T>);

impl<T, const RANK: u8> Ranked<T, RANK> {
    /// Creates a new ranked mutex.
    pub const fn new(value: T) -> Self {
        Ranked(Mutex::new(value))
    }

    /// Acquires the lock.
    ///
    /// # Panics
    ///
    /// In debug builds, if the calling thread already holds a lock of
    /// this rank or above.
    #[inline]
    pub fn lock(&self) -> RankedGuard<'_, T, RANK> {
        #[cfg(debug_assertions)]
        held::take(RANK);
        RankedGuard(self.0.lock())
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner()
    }
}

impl<T, const RANK: u8> Deref for RankedGuard<'_, T, RANK> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T, const RANK: u8> DerefMut for RankedGuard<'_, T, RANK> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(debug_assertions)]
impl<T, const RANK: u8> Drop for RankedGuard<'_, T, RANK> {
    fn drop(&mut self) {
        held::release(RANK);
    }
}

impl<T, const RANK: u8> fmt::Debug for Ranked<T, RANK> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ranked").field("rank", &RANK).finish()
    }
}

/// The ranks the current thread holds, one bit each.
#[cfg(debug_assertions)]
mod held {
    use std::cell::Cell;

    const NAMES: [&str; 5] = ["endpoint", "lane", "space", "history", "metrics"];

    thread_local! {
        static HELD: Cell<u32> = const { Cell::new(0) };
    }

    fn name(rank: u8) -> &'static str {
        NAMES.get(usize::from(rank)).copied().unwrap_or("unnamed")
    }

    #[expect(
        clippy::panic,
        reason = "the debug-build order check fails loud where release would deadlock"
    )]
    pub(super) fn take(rank: u8) {
        HELD.with(|held| {
            let mask = held.get();
            if mask >> rank != 0 {
                let top = (u32::BITS - 1 - mask.leading_zeros()) as u8;
                panic!(
                    "lock order: taking the {} lock (rank {rank}) while holding the {} lock (rank {top})",
                    name(rank),
                    name(top),
                );
            }
            held.set(mask | 1 << rank);
        });
    }

    pub(super) fn release(rank: u8) {
        HELD.with(|held| held.set(held.get() & !(1 << rank)));
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    #[test]
    fn ascending_ranks_nest() {
        let endpoint = Ranked::<u8, ENDPOINT>::new(0);
        let space = Ranked::<u8, SPACE>::new(0);
        let history = Ranked::<u8, HISTORY>::new(0);
        let metrics = Ranked::<u8, METRICS>::new(0);
        let _e = endpoint.lock();
        let _s = space.lock();
        let _h = history.lock();
        *metrics.lock() += 1;
    }

    #[test]
    fn a_dropped_guard_frees_its_rank() {
        let history = Ranked::<u8, HISTORY>::new(0);
        let metrics = Ranked::<u8, METRICS>::new(0);
        *metrics.lock() += 1;
        *history.lock() += 1;
        let guard = metrics.lock();
        drop(guard);
        let _h = history.lock();
        *metrics.lock() += 1;
    }

    #[test]
    #[should_panic(expected = "lock order")]
    fn space_before_endpoint_panics() {
        let endpoint = Ranked::<u8, ENDPOINT>::new(0);
        let space = Ranked::<u8, SPACE>::new(0);
        let _s = space.lock();
        let _e = endpoint.lock();
    }

    #[test]
    #[should_panic(expected = "lock order")]
    fn metrics_before_history_panics() {
        let history = Ranked::<u8, HISTORY>::new(0);
        let metrics = Ranked::<u8, METRICS>::new(0);
        let _m = metrics.lock();
        let _h = history.lock();
    }

    #[test]
    #[should_panic(expected = "lock order")]
    fn same_rank_twice_panics() {
        let a = Ranked::<u8, HISTORY>::new(0);
        let b = Ranked::<u8, HISTORY>::new(0);
        let _a = a.lock();
        let _b = b.lock();
    }
}
