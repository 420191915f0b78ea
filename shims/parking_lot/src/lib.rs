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
//! Two additions upstream does not have:
//!
//! - every acquisition bumps a per-thread counter, read with
//!   [`acquisitions`], so a test can pin how many locks a call takes
//!   exactly;
//! - every lock that is ever held while another is taken has a [`Class`],
//!   and the classes are ranked in one order, declared below. A thread
//!   that blocks for a lock must rank it after every lock it holds, so two
//!   threads can never wait on each other's locks. The check runs in every
//!   build, when the lock is taken; [`held`] tells a caller whether the
//!   thread holds any guard at all.

use std::cell::Cell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, TryLockError};

/// Declares [`Class`] from one list, outermost first: each class's rank is
/// its place in the list. `many` marks a class a thread may hold several
/// locks of at once; the caller takes those in one order of its own
/// (txdb's partitions: name order), the check sees only the class.
macro_rules! order {
    ($($(#[$doc:meta])* $class:ident $name:literal $($many:ident)?;)*) => {
        /// A lock class, ranked: a thread may block for a lock only of a
        /// class declared after every class it holds a guard of. The list is
        /// the workspace's one lock order, outermost first. A lock made with
        /// `new` has no class: it is a leaf, taken only while the thread
        /// holds nothing, and nothing is taken under it.
        #[derive(Clone, Copy, Debug)]
        #[repr(u8)]
        pub enum Class {
            $($(#[$doc])* $class,)*
        }

        impl Class {
            /// Every class, in rank order.
            const ORDER: &'static [Class] = &[$(Class::$class),*];

            /// The class's name, `<crate>.<lock>`.
            const fn name(self) -> &'static str {
                match self {
                    $(Class::$class => $name,)*
                }
            }

            /// Whether a thread may hold several locks of the class at once.
            const fn many(self) -> bool {
                match self {
                    $(Class::$class => order!(@many $($many)?),)*
                }
            }
        }
    };
    (@many many) => { true };
    (@many) => { false };
}

order! {
    /// A metastore cache's write gate: serializes its mutation.
    CatalogGate "catalog.gate";
    /// A metastore cache's entity, name and path shard maps.
    CatalogShard "catalog.shard";
    /// A partition's commit lock.
    TxdbCommit "txdb.commit" many;
    /// The open-snapshot registry (the horizon) and the partition map.
    TxdbSnapshots "txdb.snapshots";
    /// A partition's rows.
    TxdbRows "txdb.rows" many;
    /// CSN assignment and publication: the one section every commit shares.
    TxdbSequencer "txdb.sequencer";
    /// The fault plan's points.
    CloudstorePoints "cloudstore.points";
    /// The fault plan's injection log.
    CloudstoreLog "cloudstore.log";
    /// The audit log's canonical state, taken by a flush before the lanes.
    CatalogState "catalog.state";
    /// An audit append lane.
    CatalogBuf "catalog.buf";
    /// The interleaving scheduler's state, taken at every yield point, and
    /// at an opt-in one under the commit locks.
    CloudstoreSched "cloudstore.sched";
}

/// The rank of a lock made with `new`: after every class, and a leaf.
const UNRANKED: u8 = 15;
const _: () = assert!(Class::ORDER.len() <= UNRANKED as usize);

fn name_of(rank: u8) -> &'static str {
    match Class::ORDER.get(rank as usize) {
        Some(class) => class.name(),
        None => "unranked",
    }
}

fn many(rank: u8) -> bool {
    Class::ORDER.get(rank as usize).is_some_and(|c| c.many())
}

/// What this thread has taken and holds. Const initialised and without a
/// destructor, so neither counting nor ranking ever allocates; one cache
/// line, which every acquisition touches.
#[repr(C, align(64))]
struct Thread {
    /// Acquisitions so far: (shared, exclusive).
    acquisitions: Cell<(u64, u64)>,
    /// Bit `r` is set while the thread holds a guard of rank `r`.
    held: Cell<u16>,
    /// Guards held, per rank.
    guards: [Cell<u16>; 16],
}

impl Thread {
    fn count(&self, shared: u64, exclusive: u64) {
        let (s, e) = self.acquisitions.get();
        self.acquisitions.set((s + shared, e + exclusive));
    }
}

thread_local! {
    static THREAD: Thread = const {
        const NONE: Cell<u16> = Cell::new(0);
        Thread { acquisitions: Cell::new((0, 0)), held: Cell::new(0), guards: [NONE; 16] }
    };
}

/// The lock acquisitions this thread has made so far, `(shared,
/// exclusive)`: an `RwLock::read` is shared; a `Mutex::lock`, a successful
/// `Mutex::try_lock`, an `RwLock::write`, a successful `RwLock::try_write`
/// and the re-acquisition at the end of a `Condvar::wait` are exclusive.
/// Not part of upstream `parking_lot`.
pub fn acquisitions() -> (u64, u64) {
    THREAD.with(|t| t.acquisitions.get())
}

/// The class of the innermost guard this thread holds (`"unranked"` for a
/// lock made with `new`), or `None` when it holds none. Not part of
/// upstream `parking_lot`.
#[inline]
pub fn held() -> Option<&'static str> {
    let held = THREAD.with(|t| t.held.get());
    (held != 0).then(|| name_of(top(held)))
}

fn top(held: u16) -> u8 {
    15 - held.leading_zeros() as u8
}

/// Count an acquisition of a lock of `rank` and mark it held. A blocking
/// acquisition (`checked`) first refuses to wait for a lock that ranks at
/// or before one the thread holds: with another thread taking the two the
/// other way round, neither would ever wake. The panic names the caller's
/// line.
#[inline]
#[track_caller]
fn enter(rank: u8, checked: bool, shared: u64, exclusive: u64) {
    // `try_with`: a lock may be taken during thread teardown.
    let refused = THREAD.try_with(|t| {
        let held = t.held.get();
        if checked && held != 0 {
            let top = top(held);
            if rank == UNRANKED || top > rank || (top == rank && !many(rank)) {
                return Some(top);
            }
        }
        t.count(shared, exclusive);
        let guards = &t.guards[rank as usize];
        guards.set(guards.get() + 1);
        t.held.set(held | 1 << rank);
        None
    });
    if let Ok(Some(top)) = refused {
        refuse(rank, top);
    }
}

/// Unmark a guard of `rank` as it drops.
#[inline]
fn leave(rank: u8) {
    let _ = THREAD.try_with(|t| {
        let guards = &t.guards[rank as usize];
        let left = guards.get().saturating_sub(1);
        guards.set(left);
        if left == 0 {
            t.held.set(t.held.get() & !(1 << rank));
        }
    });
}

#[cold]
#[inline(never)]
#[track_caller]
fn refuse(rank: u8, top: u8) -> ! {
    let (taking, holding) = (name_of(rank), name_of(top));
    if rank == UNRANKED || top == UNRANKED {
        panic!("lock order: taking `{taking}` while holding `{holding}`; an unranked lock is taken alone (rank it in parking_lot::Class)");
    }
    if rank == top {
        panic!("lock order: taking a second `{taking}` while holding one; only a class declared many (parking_lot::Class::many) nests with itself");
    }
    panic!("lock order: taking `{taking}` while holding `{holding}`, which parking_lot::Class ranks after it");
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

pub struct Mutex<T: ?Sized> {
    rank: u8,
    inner: sync::Mutex<T>,
}

pub struct MutexGuard<'a, T: ?Sized> {
    rank: u8,
    // Held in an Option so Condvar::wait can move it through std's
    // consuming wait API while the caller keeps `&mut MutexGuard`.
    inner: Option<sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// An unranked mutex: a leaf, taken only while the thread holds no
    /// other guard.
    pub const fn new(value: T) -> Self {
        Mutex { rank: UNRANKED, inner: sync::Mutex::new(value) }
    }

    /// A mutex of `class`. Not part of upstream `parking_lot`.
    pub const fn ranked(class: Class, value: T) -> Self {
        Mutex { rank: class as u8, inner: sync::Mutex::new(value) }
    }

    pub fn into_inner(self) -> T {
        unpoison(self.inner.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized> Mutex<T> {
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        enter(self.rank, true, 0, 1);
        MutexGuard { rank: self.rank, inner: Some(unpoison(self.inner.lock())) }
    }

    /// Never waits, so it is taken whatever the thread holds; its guard
    /// still ranks what the thread takes under it.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let held = match self.inner.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        enter(self.rank, false, 0, 1);
        Some(MutexGuard { rank: self.rank, inner: Some(held) })
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        leave(self.rank);
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
    rank: u8,
    inner: sync::RwLock<T>,
}

pub struct RwLockReadGuard<'a, T: ?Sized> {
    rank: u8,
    inner: sync::RwLockReadGuard<'a, T>,
}

pub struct RwLockWriteGuard<'a, T: ?Sized> {
    rank: u8,
    inner: sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// An unranked lock: a leaf, taken only while the thread holds no
    /// other guard.
    pub const fn new(value: T) -> Self {
        RwLock { rank: UNRANKED, inner: sync::RwLock::new(value) }
    }

    /// A lock of `class`. Not part of upstream `parking_lot`.
    pub const fn ranked(class: Class, value: T) -> Self {
        RwLock { rank: class as u8, inner: sync::RwLock::new(value) }
    }
}

impl<T: ?Sized> RwLock<T> {
    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        enter(self.rank, true, 1, 0);
        RwLockReadGuard { rank: self.rank, inner: unpoison(self.inner.read()) }
    }

    #[track_caller]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        enter(self.rank, true, 0, 1);
        RwLockWriteGuard { rank: self.rank, inner: unpoison(self.inner.write()) }
    }

    /// Never waits, so it is taken whatever the thread holds; its guard
    /// still ranks what the thread takes under it.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        let held = match self.inner.try_write() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        enter(self.rank, false, 0, 1);
        Some(RwLockWriteGuard { rank: self.rank, inner: held })
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        leave(self.rank);
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        leave(self.rank);
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
    /// re-acquired before returning, exactly like parking_lot; it keeps
    /// its rank throughout.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let held = guard.inner.take().expect("mutex guard vacated");
        guard.inner = Some(unpoison(self.inner.wait(held)));
        let _ = THREAD.try_with(|t| t.count(0, 1));
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
        let three = counted(|| {
            drop(l.read());
            drop(l.read());
            drop(m.lock());
        });
        assert_eq!(three, (2, 1));
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
                drop(other.read());
                drop(other.read());
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

    #[test]
    fn locks_taken_in_rank_order_nest() {
        let (gate, commit, seq) =
            (Mutex::ranked(Class::CatalogGate, ()), Mutex::ranked(Class::TxdbCommit, ()), Mutex::ranked(Class::TxdbSequencer, ()));
        assert_eq!(held(), None);
        let g = gate.lock();
        let c = commit.lock();
        let s = seq.lock();
        assert_eq!(held(), Some("txdb.sequencer"));
        drop((s, c));
        assert_eq!(held(), Some("catalog.gate"));
        drop(g);
        assert_eq!(held(), None);
        // Released ranks are free again, in any order.
        drop(seq.lock());
        drop(gate.lock());
    }

    #[test]
    #[should_panic(expected = "taking `txdb.commit` while holding `txdb.sequencer`")]
    fn an_inversion_is_refused() {
        let (commit, seq) = (Mutex::ranked(Class::TxdbCommit, ()), Mutex::ranked(Class::TxdbSequencer, ()));
        let _s = seq.lock();
        let _c = commit.lock();
    }

    #[test]
    #[should_panic(expected = "taking a second `txdb.snapshots` while holding one")]
    fn a_class_does_not_nest_with_itself() {
        let (a, b) = (Mutex::ranked(Class::TxdbSnapshots, ()), Mutex::ranked(Class::TxdbSnapshots, ()));
        let _a = a.lock();
        let _b = b.lock();
    }

    #[test]
    fn a_class_declared_many_is_taken_several_at_a_time() {
        let commits: Vec<Mutex<()>> = (0..3).map(|_| Mutex::ranked(Class::TxdbCommit, ())).collect();
        let rows: Vec<RwLock<()>> = (0..3).map(|_| RwLock::ranked(Class::TxdbRows, ())).collect();
        let held_commits: Vec<_> = commits.iter().map(|c| c.lock()).collect();
        let read: Vec<_> = rows.iter().map(|r| r.read()).collect();
        drop(read);
        let written: Vec<_> = rows.iter().map(|r| r.write()).collect();
        assert_eq!(held(), Some("txdb.rows"));
        // One of several guards dropping leaves the class held.
        let mut written = written;
        written.pop();
        assert_eq!(held(), Some("txdb.rows"));
        drop(written);
        assert_eq!(held(), Some("txdb.commit"));
        drop(held_commits);
        assert_eq!(held(), None);
    }

    #[test]
    #[should_panic(expected = "taking `txdb.commit` while holding `txdb.rows`")]
    fn a_class_declared_many_still_ranks_against_others() {
        let (commit, rows, other) =
            (Mutex::ranked(Class::TxdbCommit, ()), RwLock::ranked(Class::TxdbRows, ()), Mutex::ranked(Class::TxdbCommit, ()));
        let _c = commit.lock();
        let _r = rows.write();
        let _o = other.lock();
    }

    #[test]
    #[should_panic(expected = "taking `unranked` while holding `catalog.gate`; an unranked lock is taken alone")]
    fn an_unranked_lock_is_not_taken_under_a_ranked_one() {
        let (gate, leaf) = (Mutex::ranked(Class::CatalogGate, ()), Mutex::new(()));
        let _g = gate.lock();
        let _l = leaf.lock();
    }

    #[test]
    #[should_panic(expected = "taking `catalog.buf` while holding `unranked`; an unranked lock is taken alone")]
    fn nothing_is_taken_under_an_unranked_lock() {
        let (leaf, log) = (RwLock::new(()), Mutex::ranked(Class::CatalogBuf, ()));
        let _l = leaf.read();
        let _g = log.lock();
    }

    #[test]
    #[should_panic(expected = "taking `txdb.snapshots` while holding `txdb.rows`")]
    fn a_try_write_is_not_checked_but_its_guard_ranks() {
        let (seq, rows, snapshots) = (
            Mutex::ranked(Class::TxdbSequencer, ()),
            RwLock::ranked(Class::TxdbRows, ()),
            Mutex::ranked(Class::TxdbSnapshots, ()),
        );
        let s = seq.lock();
        // Ranks before the sequencer, but cannot wait: taken.
        let r = rows.try_write().expect("free");
        drop(s);
        assert_eq!(held(), Some("txdb.rows"));
        let _snap = snapshots.lock();
        drop(r);
    }

    #[test]
    fn a_condvar_wait_keeps_its_guards_rank() {
        let pair = Arc::new((Mutex::ranked(Class::TxdbSnapshots, false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (lock, cvar) = &*p2;
            let mut ready = lock.lock();
            while !*ready {
                cvar.wait(&mut ready);
            }
            let after_wait = held();
            let earlier = Mutex::ranked(Class::TxdbCommit, ());
            let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(earlier.lock())));
            drop(ready);
            (after_wait, refused.is_err(), held())
        });
        {
            let (lock, cvar) = &*pair;
            *lock.lock() = true;
            cvar.notify_one();
        }
        assert_eq!(t.join().unwrap(), (Some("txdb.snapshots"), true, None));
    }

    #[test]
    fn a_lock_taken_alone_is_never_refused() {
        let leaf = Mutex::new(());
        for &class in Class::ORDER {
            let ranked = RwLock::ranked(class, ());
            drop(ranked.write());
            drop(leaf.lock());
        }
        assert_eq!(held(), None);
    }
}
