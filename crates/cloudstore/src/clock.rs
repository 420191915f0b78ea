//! Injectable time source.
//!
//! Temporary-credential expiry, cache TTLs, and audit timestamps all need a
//! clock. Production code uses [`Clock::system`]; tests use [`Clock::manual`]
//! and advance time explicitly, so expiry behaviour is deterministic.

#![expect(clippy::disallowed_methods, reason = "the injectable Clock's System backend: the one real wall-clock read")]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

/// A millisecond-resolution clock that is either the real system clock or a
/// manually-advanced simulated clock.
///
/// Cloning a manual clock shares the underlying time source, so a test can
/// hand the same clock to the STS service and the store and advance both at
/// once.
#[derive(Debug, Clone)]
pub struct Clock {
    inner: ClockInner,
}

#[derive(Debug, Clone)]
enum ClockInner {
    System,
    Manual(Arc<AtomicU64>),
}

impl Clock {
    /// Real wall-clock time.
    pub fn system() -> Self {
        Clock { inner: ClockInner::System }
    }

    /// A simulated clock starting at `start_ms` milliseconds.
    pub fn manual(start_ms: u64) -> Self {
        Clock { inner: ClockInner::Manual(Arc::new(AtomicU64::new(start_ms))) }
    }

    /// Current time in milliseconds since the clock's epoch.
    pub fn now_ms(&self) -> u64 {
        match &self.inner {
            #[expect(clippy::expect_used, reason = "a pre-epoch system clock is unrecoverable environment corruption")]
            ClockInner::System => SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .expect("system clock before unix epoch")
                .as_millis() as u64,
            ClockInner::Manual(t) => t.load(Ordering::SeqCst),
        }
    }

    /// Advance a manual clock by `delta_ms`. Panics on a system clock:
    /// advancing real time is a logic error in the caller.
    pub fn advance_ms(&self, delta_ms: u64) {
        match &self.inner {
            #[expect(clippy::panic, reason = "advancing the system clock is a documented caller logic error")]
            ClockInner::System => panic!("cannot advance the system clock"),
            ClockInner::Manual(t) => {
                t.fetch_add(delta_ms, Ordering::SeqCst);
            }
        }
    }

    /// True if this is a manually-driven clock.
    pub fn is_manual(&self) -> bool {
        matches!(self.inner, ClockInner::Manual(_))
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::system()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_starts_at_given_time() {
        let c = Clock::manual(1_000);
        assert_eq!(c.now_ms(), 1_000);
    }

    #[test]
    fn manual_clock_advances() {
        let c = Clock::manual(0);
        c.advance_ms(250);
        c.advance_ms(250);
        assert_eq!(c.now_ms(), 500);
    }

    #[test]
    fn manual_clock_clones_share_time() {
        let a = Clock::manual(10);
        let b = a.clone();
        a.advance_ms(5);
        assert_eq!(b.now_ms(), 15);
    }

    #[test]
    fn system_clock_is_monotonic_enough() {
        let c = Clock::system();
        let t1 = c.now_ms();
        let t2 = c.now_ms();
        assert!(t2 >= t1);
    }

    #[test]
    #[should_panic(expected = "cannot advance the system clock")]
    fn advancing_system_clock_panics() {
        Clock::system().advance_ms(1);
    }
}
