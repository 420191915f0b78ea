// Vendored offline shim (see shims/README.md): not held to workspace lint
// standards so the call-site-compatible surface can stay close to upstream.
#![allow(clippy::all)]

//! Workspace-local stand-in for `parking_lot`, layered over `std::sync`.
//!
//! Matches the parking_lot API shape the workspace uses: guards are
//! returned directly (no `LockResult`), and `Condvar::wait` takes the
//! guard by `&mut`. Poisoned locks are recovered transparently — the
//! workspace treats a panic while holding a lock as fatal to the test
//! anyway, so recovering keeps behavior equivalent to parking_lot's
//! no-poisoning semantics.
//!
//! One addition upstream does not have: every acquisition bumps a
//! per-thread counter, read with [`acquisitions`], so a test can pin how
//! many locks a call takes exactly.

use std::cell::Cell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, TryLockError};

thread_local! {
    /// This thread's acquisitions so far: (shared, exclusive). Const
    /// initialised and without a destructor, so counting never allocates.
    static ACQUISITIONS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// The lock acquisitions this thread has made so far, `(shared,
/// exclusive)`: an `RwLock::read` is shared; a `Mutex::lock`, a successful
/// `Mutex::try_lock`, an `RwLock::write`, a successful `RwLock::try_write`
/// and the re-acquisition at the end of a `Condvar::wait` are exclusive.
/// Not part of upstream `parking_lot`.
pub fn acquisitions() -> (u64, u64) {
    ACQUISITIONS.with(Cell::get)
}

fn count(shared: u64, exclusive: u64) {
    // `try_with`: a lock may be taken during thread teardown.
    let _ = ACQUISITIONS.try_with(|c| {
        let (s, e) = c.get();
        c.set((s + shared, e + exclusive));
    });
}

fn unpoison<G>(r: sync::LockResult<G>) -> G {
    match r {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

pub struct MutexGuard<'a, T: ?Sized> {
    // Held in an Option so Condvar::wait can move it through std's
    // consuming wait API while the caller keeps `&mut MutexGuard`.
    inner: Option<sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex { inner: sync::Mutex::new(value) }
    }

    pub fn into_inner(self) -> T {
        unpoison(self.inner.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        count(0, 1);
        MutexGuard { inner: Some(unpoison(self.inner.lock())) }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let held = match self.inner.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        count(0, 1);
        Some(MutexGuard { inner: Some(held) })
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_ref().expect("mutex guard vacated")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("mutex guard vacated")
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------------

pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: sync::RwLockReadGuard<'a, T>,
}

pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock { inner: sync::RwLock::new(value) }
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        count(1, 0);
        RwLockReadGuard { inner: unpoison(self.inner.read()) }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        count(0, 1);
        RwLockWriteGuard { inner: unpoison(self.inner.write()) }
    }

    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        let held = match self.inner.try_write() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        count(0, 1);
        Some(RwLockWriteGuard { inner: held })
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar { inner: sync::Condvar::new() }
    }

    /// Block until notified. The guard is released while waiting and
    /// re-acquired before returning, exactly like parking_lot.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let held = guard.inner.take().expect("mutex guard vacated");
        guard.inner = Some(unpoison(self.inner.wait(held)));
        count(0, 1);
    }

    pub fn notify_one(&self) -> bool {
        self.inner.notify_one();
        true
    }

    pub fn notify_all(&self) -> usize {
        self.inner.notify_all();
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_read_write() {
        let l = RwLock::new(vec![1]);
        l.write().push(2);
        assert_eq!(l.read().len(), 2);
    }

    /// The counts this thread adds while running `f`.
    fn counted(f: impl FnOnce()) -> (u64, u64) {
        let (s0, e0) = acquisitions();
        f();
        let (s1, e1) = acquisitions();
        (s1 - s0, e1 - e0)
    }

    #[test]
    fn shared_and_exclusive_acquisitions_are_counted_apart() {
        let (m, l) = (Mutex::new(0), RwLock::new(0));
        assert_eq!(counted(|| drop(l.read())), (1, 0));
        assert_eq!(counted(|| drop(l.write())), (0, 1));
        assert_eq!(counted(|| drop(m.lock())), (0, 1));
        assert_eq!(counted(|| drop((l.read(), l.read(), m.lock()))), (2, 1));
    }

    #[test]
    fn only_a_try_lock_that_succeeds_is_counted() {
        let m = Mutex::new(0);
        assert_eq!(counted(|| drop(m.try_lock().expect("free"))), (0, 1));
        let held = m.lock();
        assert_eq!(counted(|| assert!(m.try_lock().is_none())), (0, 0));
        drop(held);
        let l = RwLock::new(0);
        assert_eq!(counted(|| drop(l.try_write().expect("free"))), (0, 1));
        let reading = l.read();
        assert_eq!(counted(|| assert!(l.try_write().is_none())), (0, 0));
        drop(reading);
    }

    #[test]
    fn counts_are_per_thread() {
        let l = Arc::new(RwLock::new(0));
        let before = acquisitions();
        let other = Arc::clone(&l);
        let theirs = thread::spawn(move || {
            counted(|| {
                drop((other.read(), other.read()));
                drop(other.write());
            })
        })
        .join()
        .unwrap();
        assert_eq!(theirs, (2, 1));
        assert_eq!(acquisitions(), before, "another thread's locks are not this thread's");
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (lock, cvar) = &*p2;
            let mut waits = 0;
            let locks = counted(|| {
                let mut started = lock.lock();
                while !*started {
                    cvar.wait(&mut started);
                    waits += 1;
                }
            });
            // The first lock, and the re-acquisition that ends each wait.
            assert_eq!(locks, (0, 1 + waits));
        });
        {
            let (lock, cvar) = &*pair;
            *lock.lock() = true;
            cvar.notify_one();
        }
        t.join().unwrap();
    }
}
