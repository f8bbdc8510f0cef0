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
//! | Variable          | Meaning                                         |
//! |-------------------|-------------------------------------------------|
//! | `DV_THREADS`      | Global pool size (positive integer)             |
//! | `DV_TRACE_SAMPLE` | Record every Nth request's spans (0/1 = all)    |
//! | `DV_CACHE`        | Bench drivers' artifact cache directory         |

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

/// `DV_TRACE_SAMPLE`: deterministic 1-in-N trace sampling period.
///
/// A server records the spans of every request whose sequence number is
/// divisible by this period (sequence-keyed, so the sampled set is
/// identical at any `DV_THREADS`). Unset, `0`, `1`, or unparsable all
/// mean "record every request". Cached on first read so one process
/// cannot observe two different periods.
#[must_use]
pub fn trace_sample_every() -> u64 {
    static PERIOD: OnceLock<u64> = OnceLock::new();
    *PERIOD.get_or_init(|| {
        std::env::var("DV_TRACE_SAMPLE")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(1)
    })
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_sample_defaults_to_every_request() {
        // The test environment does not set DV_TRACE_SAMPLE; the cached
        // default must be 1 (sample everything).
        assert_eq!(trace_sample_every(), 1);
        // Cached: a second read returns the same value.
        assert_eq!(trace_sample_every(), 1);
    }
}
