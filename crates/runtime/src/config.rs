//! The workspace's single home for environment-variable configuration.
//!
//! Scattered `std::env::var` calls undermine reproducibility: two
//! subsystems can read the same knob at different times (or spell it
//! differently) and disagree about the run's configuration. dv-lint R9
//! (`env-read`) therefore bans `std::env` reads everywhere *except this
//! file* — new knobs get a reader here, cached on first use so every
//! caller in the process sees one consistent value.
//!
//! Current knobs:
//!
//! | Variable     | Meaning                                  |
//! |--------------|------------------------------------------|
//! | `DV_THREADS` | Global pool size (positive integer)      |
//! | `DV_CACHE`   | Bench binaries' artifact cache directory |

use std::path::PathBuf;
use std::sync::OnceLock;

/// `DV_THREADS`: requested global-pool thread count, or `None` to use
/// [`std::thread::available_parallelism`]. Read fresh (not cached) —
/// the global pool itself is the once-only consumer, and tests that
/// spawn scoped pools bypass the env entirely via `Pool::install`.
#[must_use]
pub fn requested_threads() -> Option<usize> {
    let env = std::env::var("DV_THREADS").ok();
    crate::parse_thread_env(env.as_deref())
}

/// `DV_CACHE`: the directory the bench drivers cache trained models,
/// fitted validators and search results in, or `None` for their
/// default. Cached on first read, like every knob here.
#[must_use]
pub fn cache_dir() -> Option<PathBuf> {
    static DIR: OnceLock<Option<PathBuf>> = OnceLock::new();
    DIR.get_or_init(|| std::env::var_os("DV_CACHE").map(PathBuf::from))
        .clone()
}
