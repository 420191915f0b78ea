//! Deterministic fault injection for chaos testing.
//!
//! A [`FaultPlan`] is a shared, seeded schedule of failures that can be
//! threaded through every layer of the system — the object store, the
//! STS verifier, the transactional database, and the catalog service —
//! the same way [`crate::Clock`] and [`crate::LatencyModel`] are. Code
//! under test names *injection points* (see [`points`]); a chaos test
//! arms a subset of them with a [`FaultMode`], and the plan decides at
//! each hit whether to inject a failure.
//!
//! Determinism is the load-bearing property: every injection point draws
//! from its own RNG stream derived from `(plan seed, point name)`, and
//! probability decisions depend only on the point's *hit index* within
//! that stream. Two runs with the same seed and the same per-point
//! operation order inject the identical fault schedule, regardless of how
//! unrelated points interleave — so a failing chaos run is replayable
//! from the seed it prints.
//!
//! A disabled plan (the default everywhere) is a single relaxed atomic
//! load per check, so production-path overhead is negligible.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Class, Mutex};

/// Well-known injection point names. Constants rather than an enum so
/// downstream crates can add points without touching this crate.
pub mod points {
    /// Object-store blind writes.
    pub const STORE_PUT: &str = "store.put";
    /// Object-store conditional writes (Delta commit primitive).
    pub const STORE_PUT_IF_ABSENT: &str = "store.put_if_absent";
    /// Object-store reads.
    pub const STORE_GET: &str = "store.get";
    /// Object-store prefix listings.
    pub const STORE_LIST: &str = "store.list";
    /// Object-store deletes.
    pub const STORE_DELETE: &str = "store.delete";
    /// Token verification — injects *expiry*, the mid-scan failure mode.
    pub const STS_VERIFY: &str = "sts.verify";
    /// Token minting (cloud STS outage).
    pub const STS_MINT: &str = "sts.mint";
    /// Transactional commit: spurious serialization conflict (storm mode).
    pub const TXDB_COMMIT_CONFLICT: &str = "txdb.commit.conflict";
    /// Transactional commit: transient backend unavailability.
    pub const TXDB_COMMIT_UNAVAILABLE: &str = "txdb.commit.unavailable";
    /// Connection-pool permit wait timing out at the commit boundary.
    pub const TXDB_POOL_TIMEOUT: &str = "txdb.pool.timeout";
    /// Catalog credential vending.
    pub const CATALOG_VEND: &str = "catalog.vend";
    /// Catalog skipping its post-commit write-through cache update
    /// (models a node failing between DB commit and cache apply).
    pub const CATALOG_CACHE_SKIP: &str = "catalog.cache.write_through_skip";
    /// Catalog dropping an explicit cache reconciliation pass.
    pub const CATALOG_RECONCILE_SKIP: &str = "catalog.cache.reconcile_skip";
}

/// When an armed injection point fires.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultMode {
    /// Never fire (same as disarming the point).
    Off,
    /// Fire independently on each hit with this probability, drawn from
    /// the point's seeded RNG stream.
    Probability(f64),
    /// Fire on every `n`-th hit (1-based: `EveryNth(3)` fires on hits
    /// 3, 6, 9, …). `EveryNth(1)` fires always.
    EveryNth(u64),
    /// Fire on the first `n` hits after arming, then go quiet — the
    /// "transient outage that heals" shape retry logic must survive.
    FirstN(u64),
    /// Fire on exactly these 0-based hit indices (sorted or not).
    Schedule(Vec<u64>),
}

/// One injected fault, for the replay log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    pub point: String,
    /// 0-based hit index at the point when the fault fired.
    pub hit: u64,
}

struct PointState {
    mode: FaultMode,
    /// xorshift-style stream state, derived from (seed, point name).
    rng_state: u64,
    hits: u64,
    injected: u64,
}

struct PlanInner {
    enabled: AtomicBool,
    seed: u64,
    total_injected: AtomicU64,
    points: Mutex<BTreeMap<String, PointState>>,
    log: Mutex<Vec<FaultEvent>>,
}

/// A shareable, seeded fault schedule. Cloning shares the plan, so every
/// layer of a system under test observes one consistent schedule.
#[derive(Clone)]
pub struct FaultPlan {
    inner: Arc<PlanInner>,
}

impl FaultPlan {
    /// A plan that never injects anything. This is the default wired into
    /// every component; checks against it are one atomic load.
    pub fn disabled() -> Self {
        FaultPlan {
            inner: Arc::new(PlanInner {
                enabled: AtomicBool::new(false),
                seed: 0,
                total_injected: AtomicU64::new(0),
                points: Mutex::ranked(Class::CloudstorePoints, BTreeMap::new()),
                log: Mutex::ranked(Class::CloudstoreLog, Vec::new()),
            }),
        }
    }

    /// An active plan with no points armed yet. All randomized decisions
    /// derive from `seed`; rerunning the same workload against a plan
    /// with the same seed reproduces the identical fault schedule.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            inner: Arc::new(PlanInner {
                enabled: AtomicBool::new(true),
                seed,
                total_injected: AtomicU64::new(0),
                points: Mutex::ranked(Class::CloudstorePoints, BTreeMap::new()),
                log: Mutex::ranked(Class::CloudstoreLog, Vec::new()),
            }),
        }
    }

    /// The seed this plan derives decisions from.
    pub fn seed(&self) -> u64 {
        self.inner.seed
    }

    /// Whether this plan can ever inject.
    pub fn is_active(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Arm (or re-arm) an injection point. Re-arming resets the point's
    /// hit counter and RNG stream, so fault schedules are relative to the
    /// latest `arm` call.
    pub fn arm(&self, point: &str, mode: FaultMode) {
        let mut points = self.inner.points.lock();
        points.insert(
            point.to_string(),
            PointState {
                mode,
                rng_state: stream_seed(self.inner.seed, point),
                hits: 0,
                injected: 0,
            },
        );
    }

    /// Disarm an injection point; its counters are kept for inspection.
    pub fn disarm(&self, point: &str) {
        let mut points = self.inner.points.lock();
        if let Some(state) = points.get_mut(point) {
            state.mode = FaultMode::Off;
        }
    }

    /// The hot-path check: should the hit happening right now at `point`
    /// fail? Records the hit and, when firing, the injection.
    pub fn should_inject(&self, point: &str) -> bool {
        if !self.inner.enabled.load(Ordering::Relaxed) {
            return false;
        }
        let mut points = self.inner.points.lock();
        let Some(state) = points.get_mut(point) else {
            return false;
        };
        let hit = state.hits;
        state.hits += 1;
        let fire = match &state.mode {
            FaultMode::Off => false,
            FaultMode::Probability(p) => next_f64(&mut state.rng_state) < *p,
            FaultMode::EveryNth(n) => *n > 0 && (hit + 1) % n == 0,
            FaultMode::FirstN(n) => hit < *n,
            FaultMode::Schedule(hits) => hits.contains(&hit),
        };
        if fire {
            state.injected += 1;
            self.inner.total_injected.fetch_add(1, Ordering::Relaxed);
            // Under `points`: the log's order is the replay witness.
            self.inner.log.lock().push(FaultEvent { point: point.to_string(), hit });
        }
        drop(points);
        if fire {
            // Annotate whatever request span is active so chaos tests can
            // assert "this fault actually fired inside that request".
            uc_obs::span_event("fault.injected", format_args!("{point}#{hit}"));
        }
        fire
    }

    /// Hits recorded at a point since it was (last) armed.
    pub fn hits(&self, point: &str) -> u64 {
        self.inner.points.lock().get(point).map_or(0, |s| s.hits)
    }

    /// Faults injected at a point since it was (last) armed.
    pub fn injected(&self, point: &str) -> u64 {
        self.inner.points.lock().get(point).map_or(0, |s| s.injected)
    }

    /// Total faults injected across all points.
    pub fn total_injected(&self) -> u64 {
        self.inner.total_injected.load(Ordering::Relaxed)
    }

    /// The ordered record of every injected fault — the replay witness:
    /// two runs with the same seed and workload must produce equal logs.
    pub fn injection_log(&self) -> Vec<FaultEvent> {
        self.inner.log.lock().clone()
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::disabled()
    }
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("active", &self.is_active())
            .field("seed", &self.inner.seed)
            .field("total_injected", &self.total_injected())
            .finish()
    }
}

/// Derive a per-point stream seed from the plan seed and point name, so
/// points draw independent deterministic streams.
fn stream_seed(seed: u64, point: &str) -> u64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for b in point.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    // splitmix64 finalizer; avoid the all-zero xorshift fixed point.
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h = h ^ (h >> 31);
    if h == 0 {
        0x9e37_79b9_7f4a_7c15
    } else {
        h
    }
}

/// xorshift64* step producing a uniform f64 in [0, 1).
fn next_f64(state: &mut u64) -> f64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    let bits = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_injects() {
        let plan = FaultPlan::disabled();
        plan.arm(points::STORE_PUT, FaultMode::Probability(1.0));
        for _ in 0..100 {
            assert!(!plan.should_inject(points::STORE_PUT));
        }
        assert_eq!(plan.total_injected(), 0);
    }

    #[test]
    fn unarmed_point_never_injects() {
        let plan = FaultPlan::seeded(7);
        for _ in 0..100 {
            assert!(!plan.should_inject(points::STORE_GET));
        }
    }

    #[test]
    fn every_nth_fires_on_schedule() {
        let plan = FaultPlan::seeded(1);
        plan.arm("p", FaultMode::EveryNth(3));
        let fired: Vec<bool> = (0..9).map(|_| plan.should_inject("p")).collect();
        assert_eq!(fired, vec![false, false, true, false, false, true, false, false, true]);
    }

    #[test]
    fn first_n_heals() {
        let plan = FaultPlan::seeded(1);
        plan.arm("p", FaultMode::FirstN(2));
        assert!(plan.should_inject("p"));
        assert!(plan.should_inject("p"));
        assert!(!plan.should_inject("p"));
        assert_eq!(plan.injected("p"), 2);
        assert_eq!(plan.hits("p"), 3);
    }

    #[test]
    fn explicit_schedule_fires_on_listed_hits() {
        let plan = FaultPlan::seeded(1);
        plan.arm("p", FaultMode::Schedule(vec![0, 4]));
        let fired: Vec<bool> = (0..6).map(|_| plan.should_inject("p")).collect();
        assert_eq!(fired, vec![true, false, false, false, true, false]);
    }

    #[test]
    fn probability_streams_are_seed_deterministic_and_point_independent() {
        let decisions = |seed: u64| -> (Vec<bool>, Vec<bool>) {
            let plan = FaultPlan::seeded(seed);
            plan.arm("a", FaultMode::Probability(0.5));
            plan.arm("b", FaultMode::Probability(0.5));
            // interleave unevenly; point streams must not perturb each other
            let a: Vec<bool> = (0..64).map(|_| plan.should_inject("a")).collect();
            let b: Vec<bool> = (0..64).map(|_| plan.should_inject("b")).collect();
            (a, b)
        };
        let (a1, b1) = decisions(42);
        let (a2, b2) = decisions(42);
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
        assert_ne!(a1, b1, "distinct points must draw distinct streams");
        let (a3, _) = decisions(43);
        assert_ne!(a1, a3, "distinct seeds must draw distinct streams");
    }

    #[test]
    fn interleaving_does_not_change_per_point_schedule() {
        // Sequential run.
        let plan1 = FaultPlan::seeded(9);
        plan1.arm("a", FaultMode::Probability(0.3));
        plan1.arm("b", FaultMode::Probability(0.3));
        let a_seq: Vec<bool> = (0..32).map(|_| plan1.should_inject("a")).collect();
        let _b: Vec<bool> = (0..32).map(|_| plan1.should_inject("b")).collect();
        // Interleaved run.
        let plan2 = FaultPlan::seeded(9);
        plan2.arm("a", FaultMode::Probability(0.3));
        plan2.arm("b", FaultMode::Probability(0.3));
        let mut a_mixed = Vec::new();
        for _ in 0..32 {
            a_mixed.push(plan2.should_inject("a"));
            let _ = plan2.should_inject("b");
        }
        assert_eq!(a_seq, a_mixed);
    }

    #[test]
    fn injection_log_replays_identically() {
        let run = |seed: u64| {
            let plan = FaultPlan::seeded(seed);
            plan.arm(points::STORE_PUT, FaultMode::Probability(0.4));
            plan.arm(points::TXDB_COMMIT_CONFLICT, FaultMode::EveryNth(2));
            for _ in 0..40 {
                let _ = plan.should_inject(points::STORE_PUT);
                let _ = plan.should_inject(points::TXDB_COMMIT_CONFLICT);
            }
            plan.injection_log()
        };
        assert_eq!(run(1234), run(1234));
        assert_ne!(run(1234), run(1235));
    }

    /// Every well-known injection point name, for alias sweeps.
    fn all_points() -> Vec<&'static str> {
        vec![
            points::STORE_PUT,
            points::STORE_PUT_IF_ABSENT,
            points::STORE_GET,
            points::STORE_LIST,
            points::STORE_DELETE,
            points::STS_VERIFY,
            points::STS_MINT,
            points::TXDB_COMMIT_CONFLICT,
            points::TXDB_COMMIT_UNAVAILABLE,
            points::TXDB_POOL_TIMEOUT,
            points::CATALOG_VEND,
            points::CATALOG_CACHE_SKIP,
            points::CATALOG_RECONCILE_SKIP,
        ]
    }

    /// Regression pin for the stream-seed derivation. These constants are
    /// the published hash inputs: changing the FNV offset/prime, the
    /// splitmix finalizer, or the seed-mixing order silently re-seeds
    /// every chaos stream and breaks replay of recorded seeds — this
    /// test makes that an explicit, reviewed decision.
    #[test]
    fn stream_seed_derivation_is_pinned() {
        assert_eq!(stream_seed(0, points::STORE_PUT), 0xd8f7_cc4f_7d65_5c0d);
        assert_eq!(stream_seed(0, points::STORE_GET), 0x7fc8_33c1_9e5e_555a);
        assert_eq!(stream_seed(42, points::STORE_PUT), 0x459a_8530_47d2_174b);
        assert_eq!(stream_seed(42, points::TXDB_COMMIT_CONFLICT), 0x3836_3ece_3d2c_c895);
        assert_eq!(stream_seed(0xdead_beef, points::CATALOG_VEND), 0xac00_aeb5_3579_c117);
    }

    /// Distinct point names must never alias to the same RNG stream: an
    /// alias would make two "independent" fault schedules move in
    /// lockstep. Sweep all well-known points across several seeds, plus
    /// adversarial near-miss names (prefixes, suffixes, case).
    #[test]
    fn stream_seeds_never_alias_across_points() {
        use std::collections::BTreeMap;
        let adversarial = [
            "store.pu", "store.putt", "store.put ", "Store.put", "store_put",
            "txdb.commit", "txdb.commit.", "a", "b", "ab", "ba", "",
        ];
        for seed in [0u64, 1, 42, u64::MAX, 0x9e37_79b9_7f4a_7c15] {
            let mut seen: BTreeMap<u64, &str> = BTreeMap::new();
            for point in all_points().into_iter().chain(adversarial) {
                let s = stream_seed(seed, point);
                if let Some(prev) = seen.insert(s, point) {
                    panic!("stream alias under seed {seed}: {prev:?} and {point:?} both derive {s:#x}");
                }
            }
        }
    }

    /// The same point under different seeds must also draw different
    /// streams — the seed really participates in the derivation.
    #[test]
    fn stream_seeds_differ_across_seeds() {
        for point in all_points() {
            let mut seen = std::collections::BTreeSet::new();
            for seed in 0u64..32 {
                assert!(
                    seen.insert(stream_seed(seed, point)),
                    "seed collision for point {point:?}"
                );
            }
        }
    }

    #[test]
    fn rearm_resets_counters_and_stream() {
        let plan = FaultPlan::seeded(5);
        plan.arm("p", FaultMode::Probability(0.5));
        let first: Vec<bool> = (0..16).map(|_| plan.should_inject("p")).collect();
        plan.arm("p", FaultMode::Probability(0.5));
        let second: Vec<bool> = (0..16).map(|_| plan.should_inject("p")).collect();
        assert_eq!(first, second);
        assert_eq!(plan.hits("p"), 16);
    }
}
