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

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, TryLockError};

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
        MutexGuard { inner: Some(unpoison(self.inner.lock())) }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(TryLockError::Poisoned(p)) => Some(MutexGuard { inner: Some(p.into_inner()) }),
            Err(TryLockError::WouldBlock) => None,
        }
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
        RwLockReadGuard { inner: unpoison(self.inner.read()) }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard { inner: unpoison(self.inner.write()) }
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

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (lock, cvar) = &*p2;
            let mut started = lock.lock();
            while !*started {
                cvar.wait(&mut started);
            }
        });
        {
            let (lock, cvar) = &*pair;
            *lock.lock() = true;
            cvar.notify_one();
        }
        t.join().unwrap();
    }
}
