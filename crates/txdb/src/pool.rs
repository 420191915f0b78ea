//! Bounded connection pool.
//!
//! Real catalog deployments talk to their backing database through a finite
//! connection pool; when the pool saturates, request latency climbs and
//! throughput hits a wall. The paper's Fig 10(b) shows exactly this regime
//! for the uncached configuration, so the substitute database models it
//! explicitly: every database operation must hold a permit for the duration
//! of its (injected) latency.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use uc_obs::{Counter, Registry};

/// A counting semaphore representing database connections.
///
/// Wait diagnostics live in [`uc_obs::Counter`]s (`txdb.pool.wait_ns`,
/// `txdb.pool.waits` when built with [`ConnectionPool::wired`]); the
/// original `total_wait`/`waits` accessors delegate to them, so existing
/// callers are unaffected. Only acquisitions that actually block are
/// measured — an uncontended acquire touches no clock at all, and a
/// single-threaded deterministic workload reports exactly zero waits.
#[derive(Clone)]
pub struct ConnectionPool {
    inner: Arc<PoolInner>,
}

struct PoolInner {
    /// Number of available permits.
    available: Mutex<usize>,
    cond: Condvar,
    capacity: usize,
    /// Total nanoseconds callers spent blocked waiting for a permit.
    wait_ns: Counter,
    /// Number of acquisitions that had to block.
    waits: Counter,
}

/// RAII permit; returning it wakes one waiter.
pub struct Permit {
    pool: ConnectionPool,
}

impl ConnectionPool {
    /// Pool with `capacity` concurrent connections. Capacity 0 is clamped
    /// to 1 — a database with no connections is not a useful model. Wait
    /// counters are detached (not visible in any registry snapshot).
    pub fn new(capacity: usize) -> Self {
        ConnectionPool::build(capacity, Counter::new(), Counter::new())
    }

    /// Pool whose wait counters live in `registry` as `txdb.pool.wait_ns`
    /// and `txdb.pool.waits`.
    pub fn wired(capacity: usize, registry: &Registry) -> Self {
        ConnectionPool::build(
            capacity,
            registry.counter("txdb.pool.wait_ns"),
            registry.counter("txdb.pool.waits"),
        )
    }

    fn build(capacity: usize, wait_ns: Counter, waits: Counter) -> Self {
        let capacity = capacity.max(1);
        ConnectionPool {
            inner: Arc::new(PoolInner {
                available: Mutex::new(capacity),
                cond: Condvar::new(),
                capacity,
                wait_ns,
                waits,
            }),
        }
    }

    /// Block until a connection is available. The pool is always taken
    /// first: a caller holding a lock could keep the permit's next holder
    /// from finishing.
    pub fn acquire(&self) -> Permit {
        let held = parking_lot::held();
        assert!(held.is_none(), "connection pool acquired while holding a `{}` guard", held.unwrap_or_default());
        let mut available = self.inner.available.lock();
        if *available == 0 {
            #[expect(clippy::disallowed_methods, reason = "measures real blocking wait for the pool.wait_ns metric")]
            let start = Instant::now();
            while *available == 0 {
                self.inner.cond.wait(&mut available);
            }
            self.inner.wait_ns.add(start.elapsed().as_nanos() as u64);
            self.inner.waits.inc();
        }
        *available -= 1;
        Permit { pool: self.clone() }
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Total time callers spent blocked waiting for a permit.
    pub fn total_wait(&self) -> Duration {
        Duration::from_nanos(self.inner.wait_ns.get())
    }

    /// Number of acquisitions that had to block. Together with
    /// [`Self::total_wait`] this is the saturation diagnostic: a rising
    /// waits count with a climbing total wait means the pool is the
    /// bottleneck (the Fig 10(b) uncached regime).
    pub fn waits(&self) -> u64 {
        self.inner.waits.get()
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        let mut available = self.pool.inner.available.lock();
        *available += 1;
        drop(available);
        self.pool.inner.cond.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc as StdArc;

    #[test]
    fn capacity_zero_clamps_to_one() {
        assert_eq!(ConnectionPool::new(0).capacity(), 1);
    }

    #[test]
    fn acquire_release_cycles() {
        let pool = ConnectionPool::new(2);
        let p1 = pool.acquire();
        let p2 = pool.acquire();
        drop(p1);
        let _p3 = pool.acquire();
        drop(p2);
    }

    #[test]
    fn pool_bounds_concurrency() {
        let pool = ConnectionPool::new(4);
        let current = StdArc::new(AtomicUsize::new(0));
        let peak = StdArc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..16 {
            let pool = pool.clone();
            let current = current.clone();
            let peak = peak.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    let _permit = pool.acquire();
                    let n = current.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(n, Ordering::SeqCst);
                    std::thread::yield_now();
                    current.fetch_sub(1, Ordering::SeqCst);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 4, "peak {} > capacity", peak.load(Ordering::SeqCst));
    }

    #[test]
    fn uncontended_acquire_is_not_counted_as_a_wait() {
        let pool = ConnectionPool::new(2);
        for _ in 0..10 {
            let _p = pool.acquire();
        }
        assert_eq!(pool.waits(), 0);
        assert_eq!(pool.total_wait(), Duration::ZERO);
    }

    #[test]
    fn wired_pool_reports_waits_through_registry() {
        let registry = uc_obs::Registry::new();
        let pool = ConnectionPool::wired(1, &registry);
        let permit = pool.acquire();
        let waiter = {
            let pool = pool.clone();
            std::thread::spawn(move || {
                let _p = pool.acquire();
            })
        };
        std::thread::sleep(Duration::from_millis(5));
        drop(permit);
        waiter.join().unwrap();
        assert!(pool.waits() >= 1);
        assert_eq!(registry.counter("txdb.pool.waits").get(), pool.waits());
        assert!(registry.counter("txdb.pool.wait_ns").get() > 0);
    }

    #[test]
    fn saturation_diagnostics_report_contention() {
        let pool = ConnectionPool::new(1);
        assert_eq!(pool.waits(), 0);
        assert_eq!(pool.total_wait(), Duration::ZERO);
        let permit = pool.acquire();
        let waiter = {
            let pool = pool.clone();
            std::thread::spawn(move || {
                let _p = pool.acquire(); // blocks until the holder releases
            })
        };
        std::thread::sleep(Duration::from_millis(5));
        drop(permit);
        waiter.join().unwrap();
        assert!(pool.waits() >= 1, "blocked acquire must be counted");
        assert!(pool.total_wait() > Duration::ZERO);
    }
}
