//! The single audited wall-clock site for bench reporting (the bench
//! crate's one clock exemption from `clippy::disallowed_methods`).
//! Benchmarks measure *real* elapsed time by definition — but every
//! measurement goes through this `Stopwatch` so `Instant::now` appears
//! exactly once in the bench crate, in a module whose purpose is to be
//! that boundary. Simulation code paths use the injected
//! `uc_cloudstore::Clock` instead; if you are reaching for this type
//! outside a bench harness, you want that clock.

#![expect(clippy::disallowed_methods, reason = "Stopwatch: the single audited wall-clock site for bench reporting")]

use std::time::{Duration, Instant};

/// A started wall-clock timer.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    t0: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Stopwatch { t0: Instant::now() }
    }

    /// Real time elapsed since `start`.
    pub fn elapsed(&self) -> Duration {
        self.t0.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotonic() {
        let sw = Stopwatch::start();
        let a = sw.elapsed();
        let b = sw.elapsed();
        assert!(b >= a);
    }
}
