//! Windowed time-series: fixed-size ring buffers over the injected clock.
//!
//! A [`WindowSeries`] answers "what happened over the *last second*", not
//! "since process start": recordings land in the ring bucket covering
//! `now_ms / BUCKET_MS`, and a snapshot folds only the buckets whose
//! epoch falls inside the trailing window. Rate is `count · 1000 /
//! window_ms` (integer math); p50/p99 come from the same quarter-octave
//! bucket scheme as [`crate::Histogram`], folded across the in-window
//! ring slots.
//!
//! Time is whatever clock the owning [`crate::Obs`] was built with — the
//! shared virtual clock in tests, so two fixed-seed runs fill identical
//! buckets and snapshot identical bytes; `Obs::disabled()` pins the clock
//! at zero, so every recording lands in epoch 0 and the window degenerates
//! to "since start" (still deterministic).
//!
//! Concurrency: recording is lock-free — each bucket is a block of plain
//! atomics; `fetch_add`/`fetch_max` commute, so fold results are
//! independent of recording order and thread placement. Bucket *turnover*
//! (the epoch advancing past a slot) is claimed by a compare-and-swap of
//! the slot's epoch to a reset marker, so exactly one thread resets a slot
//! per epoch; a recorder that finds the slot mid-reset waits for the new
//! epoch and then records, so no sample is lost. With a virtual clock,
//! turnover points are themselves deterministic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::metrics::{Histogram, HISTOGRAM_BUCKETS};

/// Ring slots per series.
pub const WINDOW_SLOTS: usize = 8;

/// Milliseconds of (virtual) time per ring slot. 8 × 125 ms = a 1 s
/// trailing window.
pub const WINDOW_BUCKET_MS: u64 = 125;

/// Total trailing window covered by one series.
pub const WINDOW_MS: u64 = WINDOW_SLOTS as u64 * WINDOW_BUCKET_MS;

/// [`WindowSlot::epoch`] of a slot being reset.
const RESETTING: u64 = u64::MAX;

/// One ring slot: the epoch it currently holds plus fold-friendly atomics.
struct WindowSlot {
    /// `now_ms / WINDOW_BUCKET_MS` of the data in this slot, or
    /// [`RESETTING`] while the recorder that claimed it zeroes it (folds
    /// skip it; recorders wait for it).
    epoch: AtomicU64,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl WindowSlot {
    fn new() -> Self {
        WindowSlot {
            epoch: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Hold this slot open for samples of `epoch`. A slot of an older
    /// epoch is claimed by one compare-and-swap to [`RESETTING`], zeroed
    /// and republished; a recorder that loses the race, or finds the slot
    /// mid-reset, waits until the epoch is published. `false` when the
    /// slot already holds a newer epoch: the sample is a full ring older
    /// than the slot's data, outside every window a fold can still ask
    /// for.
    fn open(&self, epoch: u64) -> bool {
        loop {
            let held = self.epoch.load(Ordering::Acquire);
            if held == epoch {
                return true;
            }
            if held == RESETTING {
                std::thread::yield_now();
            } else if held > epoch {
                return false;
            } else if self.epoch.compare_exchange(held, RESETTING, Ordering::Acquire, Ordering::Acquire).is_ok() {
                self.reset_to(epoch);
                return true;
            }
        }
    }

    /// Zero a claimed slot and publish `epoch` ([`Self::open`]).
    fn reset_to(&self, epoch: u64) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.epoch.store(epoch, Ordering::Release);
    }
}

struct WindowInner {
    slots: Vec<WindowSlot>,
}

/// A named trailing-window series. Clone-shared like the other handles.
#[derive(Clone)]
pub struct WindowSeries {
    inner: Arc<WindowInner>,
}

impl std::fmt::Debug for WindowSeries {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowSeries").finish_non_exhaustive()
    }
}

impl Default for WindowSeries {
    fn default() -> Self {
        WindowSeries::new()
    }
}

impl WindowSeries {
    pub fn new() -> Self {
        WindowSeries {
            inner: Arc::new(WindowInner {
                slots: (0..WINDOW_SLOTS).map(|_| WindowSlot::new()).collect(),
            }),
        }
    }

    /// Record one sample observed at virtual time `now_ms`.
    pub fn record(&self, now_ms: u64, value: u64) {
        let epoch = now_ms / WINDOW_BUCKET_MS;
        let slot = &self.inner.slots[(epoch as usize) % WINDOW_SLOTS];
        if !slot.open(epoch) {
            return;
        }
        slot.buckets[Histogram::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        slot.count.fetch_add(1, Ordering::Relaxed);
        slot.sum.fetch_add(value, Ordering::Relaxed);
        slot.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Fold the slots whose epoch lies in the trailing window ending at
    /// `now_ms`: `(count, sum, max, per-bucket occupancy)`.
    fn fold(&self, now_ms: u64) -> (u64, u64, u64, Vec<u64>) {
        let cur = now_ms / WINDOW_BUCKET_MS;
        let oldest = cur.saturating_sub(WINDOW_SLOTS as u64 - 1);
        let mut count = 0u64;
        let mut sum = 0u64;
        let mut max = 0u64;
        let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
        for slot in &self.inner.slots {
            let e = slot.epoch.load(Ordering::Acquire);
            if e == RESETTING || e < oldest || e > cur {
                continue;
            }
            count += slot.count.load(Ordering::Relaxed);
            sum = sum.wrapping_add(slot.sum.load(Ordering::Relaxed));
            max = max.max(slot.max.load(Ordering::Relaxed));
            for (acc, b) in buckets.iter_mut().zip(slot.buckets.iter()) {
                *acc += b.load(Ordering::Relaxed);
            }
        }
        (count, sum, max, buckets)
    }

    /// Samples inside the trailing window at `now_ms`.
    pub fn count(&self, now_ms: u64) -> u64 {
        self.fold(now_ms).0
    }

    /// Integer samples/second over the trailing window at `now_ms`.
    pub fn rate_per_s(&self, now_ms: u64) -> u64 {
        self.count(now_ms) * 1000 / WINDOW_MS
    }

    /// Interpolated quantile over the trailing window (same math as
    /// [`Histogram::percentile`]).
    pub fn percentile(&self, now_ms: u64, q: f64) -> u64 {
        let (count, _, max, buckets) = self.fold(now_ms);
        if count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cumulative = 0u64;
        for (i, &n) in buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if cumulative + n >= rank {
                let pos = rank - cumulative;
                let lo = Histogram::bucket_lower_bound(i);
                let hi = Histogram::bucket_upper_bound(i);
                let span = (hi - lo) as u128;
                let est = lo + ((span * (2 * pos as u128 - 1)) / (2 * n as u128)) as u64;
                return est.min(max);
            }
            cumulative += n;
        }
        max
    }

    /// One canonical snapshot line body (everything after the name).
    pub fn render(&self, now_ms: u64) -> String {
        let (count, sum, max, _) = self.fold(now_ms);
        format!(
            "window bucket_ms={WINDOW_BUCKET_MS} window_ms={WINDOW_MS} count={count} sum={sum} \
             rate_per_s={} p50={} p99={} max={max}",
            self.rate_per_s(now_ms),
            self.percentile(now_ms, 0.50),
            self.percentile(now_ms, 0.99),
        )
    }
}

/// Registry-side store of window series, keyed by name.
#[derive(Debug, Default)]
pub(crate) struct Windows {
    series: Mutex<std::collections::BTreeMap<String, WindowSeries>>,
}

impl Windows {
    pub(crate) fn series(&self, name: &str) -> WindowSeries {
        self.series
            .lock()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    pub(crate) fn render(&self, now_ms: u64, out: &mut Vec<String>) {
        for (name, s) in self.series.lock().iter() {
            out.push(format!("{name} {}", s.render(now_ms)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_and_quantiles_cover_only_the_trailing_window() {
        let w = WindowSeries::new();
        // 10 samples in epoch 0, 40 in epochs 4..8 (500..1000ms).
        for _ in 0..10 {
            w.record(0, 100);
        }
        for k in 0..40u64 {
            w.record(500 + (k % 4) * WINDOW_BUCKET_MS, 10 + k);
        }
        // At t=999 everything is in-window.
        assert_eq!(w.count(999), 50);
        assert_eq!(w.rate_per_s(999), 50);
        // At t=1100 epoch 0 has aged out (oldest in-window epoch is 1).
        assert_eq!(w.count(1100), 40);
        assert_eq!(w.max(1100), 49);
        assert!(w.percentile(1100, 0.99) <= 49);
        assert!(w.percentile(1100, 0.50) >= 10);
    }

    #[test]
    fn slots_recycle_after_a_full_rotation() {
        let w = WindowSeries::new();
        w.record(0, 5);
        assert_eq!(w.count(0), 1);
        // A full ring later the same slot index hosts a new epoch; the old
        // sample must not resurface.
        w.record(WINDOW_MS, 7);
        assert_eq!(w.count(WINDOW_MS), 1, "epoch-0 sample aged out and was reset");
        assert_eq!(w.max(WINDOW_MS), 7);
    }

    #[test]
    fn render_is_deterministic() {
        let build = || {
            let w = WindowSeries::new();
            for v in [3u64, 5, 5, 9] {
                w.record(100, v);
            }
            w.render(200)
        };
        assert_eq!(build(), build());
        assert!(build().starts_with("window bucket_ms=125 window_ms=1000 count=4 sum=22"));
    }

    #[test]
    fn concurrent_recording_folds_placement_independently() {
        let run = |threads: usize| {
            let w = WindowSeries::new();
            std::thread::scope(|s| {
                for _ in 0..threads {
                    let w = w.clone();
                    s.spawn(move || {
                        for v in 1..=32u64 {
                            w.record(250, v);
                        }
                    });
                }
            });
            (w.count(300), w.render(300))
        };
        let (c1, r1) = run(1);
        let (c4, r4) = run(4);
        assert_eq!(c1, 32);
        assert_eq!(c4, 128);
        assert!(r1.contains("count=32"));
        assert!(r4.contains("count=128"));
    }

    #[test]
    fn concurrent_turnover_loses_no_sample() {
        // Every thread finds the slot of epoch 0 stale at once: one resets
        // it, the rest wait for the reset and record.
        const THREADS: u64 = 4;
        const SAMPLES: u64 = 500;
        let w = WindowSeries::new();
        w.record(0, 1);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for v in 0..SAMPLES {
                        w.record(WINDOW_MS, v);
                    }
                });
            }
        });
        assert_eq!(w.count(WINDOW_MS), THREADS * SAMPLES);
        let before = parking_lot::acquisitions();
        w.record(2 * WINDOW_MS, 3);
        let after = parking_lot::acquisitions();
        assert_eq!((after.0 - before.0, after.1 - before.1), (0, 0), "a turnover takes no lock");
        assert_eq!(w.count(2 * WINDOW_MS), 1);
    }

    impl WindowSeries {
        fn max(&self, now_ms: u64) -> u64 {
            self.fold(now_ms).2
        }
    }
}
