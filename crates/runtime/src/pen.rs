//! Crash-retry holding pen: a small locked FIFO that keeps in-flight
//! jobs recoverable across a worker panic.
//!
//! dv-serve workers park everything they drain here *before* scoring
//! anything, so a panic anywhere in a wakeup leaves every
//! not-yet-fulfilled promise inside the pen for the respawned
//! incarnation to pop and retry. Like [`BoundedQueue`] and
//! [`oneshot`], the lock lives in `crates/runtime` (dv-lint R2) and the
//! API never exposes its guard: each method holds the lock only for its
//! own duration, so a caller *cannot* hold the pen across scoring.
//!
//! [`BoundedQueue`]: crate::BoundedQueue
//! [`oneshot`]: crate::oneshot

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A FIFO pen of parked items behind one lock.
///
/// Poison-tolerant by design: the pen exists to survive panics, so an
/// unwind through [`for_front`](HoldingPen::for_front)'s visitor (the
/// only place caller code runs under the lock) must not wedge every
/// later pop into a poison cascade — that would strand the very
/// promises the pen protects. `VecDeque` operations leave the deque
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

    /// Visits the first `n` parked items (fewer when the pen is
    /// shorter) in FIFO order without removing them.
    pub fn for_front(&self, n: usize, mut f: impl FnMut(&T)) {
        for item in self.lock().iter().take(n) {
            f(item);
        }
    }

    /// Visits the first `n` parked items mutably (fewer when the pen is
    /// shorter) in FIFO order without removing them. Lets dv-serve stamp
    /// lifecycle bookkeeping onto penned jobs in place, keeping the
    /// pen's crash-recoverability: the item never leaves the lock.
    pub fn for_front_mut(&self, n: usize, mut f: impl FnMut(&mut T)) {
        for item in self.lock().iter_mut().take(n) {
            f(item);
        }
    }

    /// Moves the parked items `pick` accepts in front of the ones it
    /// rejects, keeping FIFO order within both groups, and returns how
    /// many it accepted. `pick` visits every item once, oldest first,
    /// under the lock (as [`for_front`](HoldingPen::for_front)'s visitor
    /// does), so it may carry state from one item to the next. Nothing
    /// leaves the pen and nothing is allocated.
    pub fn hoist(&self, mut pick: impl FnMut(&T) -> bool) -> usize {
        let mut inner = self.lock();
        let items = inner.make_contiguous();
        let mut picked = 0;
        for i in 0..items.len() {
            if pick(&items[i]) {
                items[picked..=i].rotate_right(1);
                picked += 1;
            }
        }
        picked
    }

    /// Removes and returns the first `n` parked items (fewer when the
    /// pen is shorter) in FIFO order.
    #[must_use]
    pub fn release_front(&self, n: usize) -> Vec<T> {
        let mut inner = self.lock();
        let n = n.min(inner.len());
        inner.drain(..n).collect()
    }

    /// Number of parked items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether nothing is parked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
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
        assert_eq!(pen.len(), 3);
        assert_eq!(pen.pop_front(), Some(1));
        assert_eq!(pen.pop_front(), Some(2));
        assert_eq!(pen.pop_front(), Some(3));
        assert_eq!(pen.pop_front(), None);
        assert!(pen.is_empty());
    }

    #[test]
    fn for_front_peeks_without_removing() {
        let pen = HoldingPen::new();
        pen.park([10, 20, 30]);
        let mut seen = Vec::new();
        pen.for_front(2, |&v| seen.push(v));
        assert_eq!(seen, vec![10, 20]);
        assert_eq!(pen.len(), 3, "peeking must not consume");
        seen.clear();
        pen.for_front(99, |&v| seen.push(v));
        assert_eq!(seen, vec![10, 20, 30], "n past the end visits all");
    }

    #[test]
    fn for_front_mut_updates_in_place_without_removing() {
        let pen = HoldingPen::new();
        pen.park([10, 20, 30]);
        pen.for_front_mut(2, |v| *v += 1);
        assert_eq!(pen.len(), 3, "mutable peek must not consume");
        assert_eq!(pen.release_front(3), vec![11, 21, 30]);
    }

    #[test]
    fn hoist_is_a_stable_partition_to_the_front() {
        let pen = HoldingPen::new();
        pen.park([1, 2, 3, 4, 5, 6]);
        let mut seen = Vec::new();
        let picked = pen.hoist(|&v| {
            seen.push(v);
            v % 2 == 0
        });
        assert_eq!(picked, 3);
        assert_eq!(seen, vec![1, 2, 3, 4, 5, 6], "every item, oldest first");
        assert_eq!(pen.release_front(6), vec![2, 4, 6, 1, 3, 5]);
        assert_eq!(pen.hoist(|_| true), 0, "an empty pen picks nothing");
    }

    #[test]
    fn release_front_takes_exactly_the_prefix() {
        let pen = HoldingPen::new();
        pen.park([1, 2, 3, 4]);
        assert_eq!(pen.release_front(2), vec![1, 2]);
        assert_eq!(pen.len(), 2);
        assert_eq!(pen.release_front(99), vec![3, 4], "over-ask drains all");
        assert!(pen.release_front(1).is_empty());
    }

    #[test]
    fn pen_survives_a_panic_inside_the_visitor() {
        let pen = HoldingPen::new();
        pen.park([1, 2, 3]);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pen.for_front(3, |&v| {
                if v == 2 {
                    panic!("injected visitor panic");
                }
            });
        }))
        .is_err();
        assert!(unwound);
        // The whole point: a poisoned guard must not strand the jobs.
        assert_eq!(pen.pop_front(), Some(1));
        assert_eq!(pen.release_front(2), vec![2, 3]);
    }
}
