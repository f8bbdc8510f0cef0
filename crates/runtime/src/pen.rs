//! Holding pen: a small locked FIFO that keeps in-flight jobs
//! recoverable across a worker panic.
//!
//! dv-serve workers park everything they drain here *before* scoring
//! anything, and take a job out only once it has scored, so a panic
//! anywhere in a wakeup leaves every not-yet-fulfilled promise inside
//! the pen for the worker's crash handler and its respawned incarnation
//! to pop. Like [`BoundedQueue`] and [`oneshot`], the lock
//! lives in `crates/runtime` (dv-lint R2) and the API never exposes its
//! guard: each method holds the lock only for its own duration, so a
//! caller *cannot* hold the pen across scoring.
//!
//! [`BoundedQueue`]: crate::BoundedQueue
//! [`oneshot`]: crate::oneshot

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A FIFO pen of parked items behind one lock.
///
/// Poison-tolerant by design: the pen exists to survive panics, so an
/// unwind through [`for_front_mut`](HoldingPen::for_front_mut)'s
/// visitor (the only place caller code runs under the lock) must not
/// wedge every later pop into a poison cascade — that would strand the
/// very promises the pen protects. `VecDeque` operations leave the deque
/// valid when they unwind, so recovering the poisoned guard is sound.
pub struct HoldingPen<T> {
    inner: Mutex<VecDeque<T>>,
}

impl<T> HoldingPen<T> {
    /// An empty pen.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(VecDeque::new()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Parks every item behind anything already penned, preserving the
    /// iterator's order.
    pub fn park(&self, items: impl IntoIterator<Item = T>) {
        self.lock().extend(items);
    }

    /// Removes and returns the oldest parked item.
    pub fn pop_front(&self) -> Option<T> {
        self.lock().pop_front()
    }

    /// Runs `f` on the oldest parked item, mutably and without removing
    /// it, and returns its result (`None` when the pen is empty). Lets
    /// dv-serve read a parked job and stamp lifecycle bookkeeping onto
    /// it in place, keeping the pen's crash-recoverability: the item
    /// never leaves the lock.
    pub fn for_front_mut<R>(&self, f: impl FnOnce(&mut T) -> R) -> Option<R> {
        self.lock().front_mut().map(f)
    }
}

impl<T> Default for HoldingPen<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn park_and_pop_preserve_fifo_order() {
        let pen = HoldingPen::new();
        pen.park([1, 2]);
        pen.park(std::iter::once(3));
        assert_eq!(pen.pop_front(), Some(1));
        assert_eq!(pen.pop_front(), Some(2));
        assert_eq!(pen.pop_front(), Some(3));
        assert_eq!(pen.pop_front(), None);
    }

    #[test]
    fn for_front_mut_updates_in_place_without_removing() {
        let pen = HoldingPen::new();
        pen.park([10, 20]);
        assert_eq!(
            pen.for_front_mut(|v| {
                *v += 1;
                *v
            }),
            Some(11)
        );
        assert_eq!(pen.pop_front(), Some(11), "the visit must not consume");
        assert_eq!(pen.pop_front(), Some(20), "only the front is visited");
        assert_eq!(pen.for_front_mut(|v| *v), None, "an empty pen has no front");
    }

    #[test]
    fn pen_survives_a_panic_inside_the_visitor() {
        let pen = HoldingPen::new();
        pen.park([1, 2, 3]);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pen.for_front_mut(|_| panic!("injected visitor panic"));
        }))
        .is_err();
        assert!(unwound);
        // The whole point: a poisoned guard must not strand the jobs.
        assert_eq!(pen.pop_front(), Some(1));
        assert_eq!(pen.pop_front(), Some(2));
        assert_eq!(pen.pop_front(), Some(3));
    }
}
