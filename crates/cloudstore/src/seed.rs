//! The audited entropy boundary (clippy: `disallowed_methods`).
//!
//! Nothing outside this module (and the injectable [`crate::clock`]) may
//! touch ambient nondeterminism — no `thread_rng`, no `SystemTime::now`.
//! Code that needs "fresh randomness" for *identity* material — entity
//! ids, STS secrets, token nonces — draws from the process-wide stream
//! here instead. The stream is:
//!
//!   * seedable: `UC_SEED=<u64>` pins the whole process stream, so a
//!     failing run can be replayed with identical ids and nonces;
//!   * inspectable: [`reseed`] lets tests pin it programmatically;
//!   * ambient only as a fallback: without `UC_SEED` the initial seed is
//!     drawn from the OS via `RandomState` (hashmap seeding entropy),
//!     not from the clock, so "unseeded" still does not read time.
//!
//! This is deliberately *not* the chaos/scheduler randomness: FaultPlan
//! and the sched scheduler derive their own named streams from
//! UC_CHAOS_SEED / UC_SCHED_SEED and never consult this module, so
//! pinning one plane does not perturb the other.

#![expect(clippy::disallowed_methods, reason = "the audited entropy/seed module (UC_SEED override, ambient fallback)")]

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

static STATE: OnceLock<AtomicU64> = OnceLock::new();

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

fn initial_seed() -> u64 {
    if let Ok(v) = std::env::var("UC_SEED") {
        if let Ok(seed) = v.trim().parse::<u64>() {
            return seed;
        }
    }
    // OS entropy without touching the clock: RandomState's per-instance
    // keys are randomly seeded by std.
    let mut h = RandomState::new().build_hasher();
    h.write_u64(GOLDEN_GAMMA);
    h.finish()
}

fn state() -> &'static AtomicU64 {
    STATE.get_or_init(|| AtomicU64::new(initial_seed()))
}

/// Next value from the process-wide splitmix64 stream. Lock-free and
/// thread-safe: each caller claims a distinct position via fetch_add.
pub fn next_u64() -> u64 {
    let x = state().fetch_add(GOLDEN_GAMMA, Ordering::Relaxed).wrapping_add(GOLDEN_GAMMA);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Pin the stream position — test hook for byte-reproducible identities.
pub fn reseed(seed: u64) {
    state().store(seed, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reseed_pins_the_stream() {
        reseed(42);
        let a = (next_u64(), next_u64(), next_u64());
        reseed(42);
        let b = (next_u64(), next_u64(), next_u64());
        assert_eq!(a, b);
    }

    #[test]
    fn stream_values_differ() {
        reseed(7);
        let a = next_u64();
        let b = next_u64();
        assert_ne!(a, b);
        assert_ne!(a, 0);
    }
}
