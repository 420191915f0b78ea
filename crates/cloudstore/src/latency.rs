//! Injected latency model for storage and database operations.
//!
//! The paper's performance figures depend on where the latency lives:
//! network hops to a remote catalog, database reads behind a bounded
//! connection pool, and object-store round trips. Benchmarks configure a
//! [`LatencyModel`] per component; unit tests use [`LatencyModel::zero`].

use std::time::Duration;

/// Classes of operations that may have distinct costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Point read of one object / row.
    Read,
    /// Write of one object / row.
    Write,
    /// Listing / range scan.
    List,
    /// Control-plane round trip (e.g. credential mint).
    Control,
}

/// Fixed per-class latencies, applied by busy-sleeping the calling thread.
#[derive(Debug, Clone, Default)]
pub struct LatencyModel {
    read: Duration,
    write: Duration,
    list: Duration,
    control: Duration,
}

impl LatencyModel {
    /// No injected latency — the right choice for unit tests.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Uniform latency for all operation classes.
    pub fn uniform(d: Duration) -> Self {
        LatencyModel { read: d, write: d, list: d, control: d }
    }

    /// Latency configured for `class`.
    pub fn duration(&self, class: OpClass) -> Duration {
        match class {
            OpClass::Read => self.read,
            OpClass::Write => self.write,
            OpClass::List => self.list,
            OpClass::Control => self.control,
        }
    }

    /// Block the calling thread for the configured duration. Zero-cost when
    /// the duration is zero.
    pub fn apply(&self, class: OpClass) {
        let d = self.duration(class);
        if !d.is_zero() {
            spin_sleep(d);
        }
    }
}

/// Sleep with better-than-scheduler accuracy for sub-millisecond latencies:
/// `thread::sleep` on Linux typically overshoots by ~50µs+, which would
/// distort throughput curves at high request rates. We sleep for the bulk
/// and spin the remainder.
fn spin_sleep(d: Duration) {
    let start = std::time::Instant::now();
    if d > Duration::from_micros(200) {
        std::thread::sleep(d - Duration::from_micros(150));
    }
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_model_applies_instantly() {
        let m = LatencyModel::zero();
        let start = std::time::Instant::now();
        for _ in 0..1000 {
            m.apply(OpClass::Read);
        }
        assert!(start.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn uniform_model_sleeps_at_least_duration() {
        let m = LatencyModel::uniform(Duration::from_micros(500));
        let start = std::time::Instant::now();
        m.apply(OpClass::Write);
        assert!(start.elapsed() >= Duration::from_micros(500));
    }

    #[test]
    fn per_class_durations_are_respected() {
        let m = LatencyModel {
            read: Duration::from_millis(1),
            write: Duration::from_millis(2),
            list: Duration::from_millis(3),
            control: Duration::from_millis(4),
        };
        assert_eq!(m.duration(OpClass::Read), Duration::from_millis(1));
        assert_eq!(m.duration(OpClass::Write), Duration::from_millis(2));
        assert_eq!(m.duration(OpClass::List), Duration::from_millis(3));
        assert_eq!(m.duration(OpClass::Control), Duration::from_millis(4));
    }
}
