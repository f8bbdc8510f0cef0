//! The one place the workspace reads a wall clock.
//!
//! dv-lint R8 (`raw-timing`) bans `std::time::Instant`/`SystemTime`
//! everywhere outside this crate, so every reported duration — span,
//! histogram sample, serving deadline, or bench number — flows through
//! the same monotonic source and cannot drift apart from the exported
//! metrics.

use std::sync::OnceLock;
use std::time::Instant;

/// Process-wide epoch: the first call to [`now_ns`] pins it, and every
/// later read is an offset from that instant. Chrome-trace timestamps
/// from different threads therefore share one timeline.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds elapsed since the process-wide trace epoch.
///
/// Monotonic and shared across threads; the epoch is pinned lazily by
/// the first caller. Truncation to `u64` allows ~584 years of uptime.
#[must_use]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A monotonic stopwatch for bench binaries and harnesses.
///
/// This is the sanctioned replacement for ad-hoc `Instant::now()` pairs:
/// bench bins time with a `Stopwatch` and record into the
/// [`MetricsRegistry`](crate::MetricsRegistry), so the printed number and
/// the exported metric are the same measurement.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start_ns: u64,
}

impl Stopwatch {
    /// Starts timing now.
    #[must_use]
    pub fn start() -> Self {
        Self { start_ns: now_ns() }
    }

    /// Nanoseconds elapsed since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        now_ns().saturating_sub(self.start_ns)
    }

    /// Microseconds elapsed since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed_us(&self) -> u64 {
        self.elapsed_ns() / 1_000
    }

    /// Milliseconds elapsed since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed_ms(&self) -> u64 {
        self.elapsed_ns() / 1_000_000
    }

    /// Seconds elapsed since [`Stopwatch::start`], as `f64`.
    #[must_use]
    pub fn elapsed_secs_f64(&self) -> f64 {
        self.elapsed_ns() as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a, "clock went backwards: {a} -> {b}");
    }

    #[test]
    fn stopwatch_units_are_consistent() {
        let sw = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let ns = sw.elapsed_ns();
        assert!(ns >= 2_000_000, "slept 2ms but measured {ns}ns");
        assert!(sw.elapsed_us() >= ns / 1_000 - 1);
        assert!(sw.elapsed_secs_f64() > 0.0);
    }
}
