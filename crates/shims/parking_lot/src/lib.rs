//! In-repo shim of the `parking_lot` mutex API over `std::sync`.
//!
//! parking_lot's `lock()` returns the guard directly (no poisoning
//! `Result`). This shim wraps `std::sync::Mutex` and recovers from
//! poisoning — a panic while holding the lock does not poison it for other
//! threads, matching parking_lot semantics closely enough for this
//! workspace's uses.
//!
//! **One lock at a time.** A thread holds at most one of these mutexes at
//! any moment. With no nesting there is no acquisition order, so no lock
//! order can deadlock. Debug builds (every `cargo test` run) check the
//! rule: taking a lock while the same thread still holds a guard panics
//! with "a thread acquired a second lock". Release builds compile the check
//! out, so optimized code is the plain `std` lock.

use std::ops::{Deref, DerefMut};
use std::sync;

/// A mutex whose `lock` returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Mutex { inner: sync::Mutex::new(value) }
    }

    /// Acquires the mutex, blocking until available.
    ///
    /// # Panics
    ///
    /// In debug builds, if this thread already holds a guard of any
    /// `Mutex` from this crate.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        held::acquire();
        MutexGuard { inner: self.inner.lock().unwrap_or_else(sync::PoisonError::into_inner) }
    }
}

/// Holds a [`Mutex`] until dropped.
#[derive(Debug)]
pub struct MutexGuard<'a, T> {
    inner: sync::MutexGuard<'a, T>,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        held::release();
    }
}

/// Whether the current thread holds a guard. A guard is `!Send` (it wraps
/// `std::sync::MutexGuard`), so it is released on the thread that took it.
#[cfg(debug_assertions)]
mod held {
    use std::cell::Cell;

    thread_local! {
        static HOLDS_LOCK: Cell<bool> = const { Cell::new(false) };
    }

    /// Checked before blocking, so a thread re-taking its own lock panics
    /// instead of deadlocking.
    pub(super) fn acquire() {
        if HOLDS_LOCK.with(|held| held.replace(true)) {
            panic!("a thread acquired a second lock while holding one (one lock at a time)");
        }
    }

    pub(super) fn release() {
        HOLDS_LOCK.with(|held| held.set(false));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_guards_directly() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn sequential_and_retaken_locks_are_allowed() {
        let a = Mutex::new(1);
        let b = Mutex::new(2);
        // One statement's temporaries live to its end, so each lock gets
        // a statement of its own.
        let first = *a.lock();
        let second = *b.lock();
        assert_eq!(first + second, 3);
        let guard = a.lock();
        drop(guard);
        *a.lock() += 1;
        assert_eq!(*a.lock(), 2);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "a thread acquired a second lock")]
    fn nested_lock_panics() {
        let a = Mutex::new(());
        let b = Mutex::new(());
        let _outer = a.lock();
        let _inner = b.lock();
    }
}
