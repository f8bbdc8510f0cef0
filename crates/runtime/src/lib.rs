//! `dv-runtime`: a dependency-free work-stealing thread pool powering every
//! compute-bound path in the Deep Validation workspace.
//!
//! # Design
//!
//! A [`Pool`] owns `threads - 1` worker threads; the thread that submits a
//! parallel job always participates as the extra worker, so `Pool::new(1)`
//! spawns nothing and runs every primitive on the exact sequential code
//! path. Work is an index range `0..n` split into one contiguous sub-range
//! per participant. Each participant claims chunks from the front of its
//! own range and, when empty, steals the back half of the largest remaining
//! victim range — contiguous ranges keep claims cache-friendly and make the
//! scheduling overhead a handful of mutex operations per chunk.
//!
//! # Determinism
//!
//! Scheduling is nondeterministic, but every primitive here guarantees that
//! each index is executed exactly once and that outputs land in
//! index-order slots. Kernels that keep their per-index accumulation order
//! fixed (as the workspace's gram/matmul/im2col kernels do) therefore
//! produce bit-identical results for any thread count. For randomized
//! per-task work, [`split_seed`] derives statistically independent,
//! schedule-independent RNG seeds from a base seed and a task index.
//!
//! # Panics
//!
//! A panic inside a parallel closure poisons the job: remaining chunks are
//! skipped, the first payload is captured, and it is re-raised on the
//! submitting thread once the job drains.
//!
//! # Configuration
//!
//! The [`global`] pool sizes itself from the `DV_THREADS` environment
//! variable, falling back to [`std::thread::available_parallelism`].
//! [`Pool::install`] scopes the free functions ([`par_for`], [`par_map`],
//! [`par_chunks_mut`]) to an explicit pool for tests and benchmarks.
//!
//! # Serving primitives
//!
//! Long-lived request serving needs different building blocks than
//! data-parallel batch jobs, and they all live here so the rest of the
//! workspace never touches raw threads or locks (dv-lint R2/R7):
//! [`BoundedQueue`] (backpressured MPMC submission queue), [`oneshot`]
//! (promise/ticket response handoff that breaks instead of hanging when
//! a producer dies), [`Crew`] (named pinned worker threads with crash
//! supervision and respawn), and [`HoldingPen`] (a FIFO that keeps
//! drained-but-unserved jobs recoverable across a panic).

pub mod config;
mod crew;
mod oneshot;
mod pen;
mod pool;
mod queue;
mod rng;
mod stats;

pub use crew::Crew;
pub use oneshot::{oneshot, Broken, Promise, Ticket};
pub use pen::HoldingPen;
pub use pool::{current_threads, par_chunks_mut, par_for, par_map, Pool};
pub use queue::{BoundedQueue, Drained, Popped, PushRejected};
pub use rng::split_seed;
pub use stats::StatsSnapshot;

/// Returns the process-wide pool, created on first use.
///
/// Thread count comes from `DV_THREADS` (a positive integer) when set and
/// valid, otherwise [`std::thread::available_parallelism`].
pub fn global() -> &'static Pool {
    pool::global()
}

/// Parses a `DV_THREADS`-style value; `None` means "use the default".
pub fn parse_thread_env(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_thread_env_accepts_positive_integers() {
        assert_eq!(parse_thread_env(Some("4")), Some(4));
        assert_eq!(parse_thread_env(Some(" 2 ")), Some(2));
        assert_eq!(parse_thread_env(Some("0")), None);
        assert_eq!(parse_thread_env(Some("-3")), None);
        assert_eq!(parse_thread_env(Some("many")), None);
        assert_eq!(parse_thread_env(None), None);
    }
}
