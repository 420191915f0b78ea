//! Operation counters, used by benchmarks to attribute latency.
//!
//! Since the observability plane landed, `DbStats` is a façade over
//! [`uc_obs::Counter`] handles: a default-constructed instance holds
//! detached counters (exactly the old lock-free behavior), while
//! [`DbStats::wired`] binds the same fields to a metrics registry under
//! `txdb.*` names so they appear in deterministic snapshots. Either way
//! the accessor API is unchanged, so existing callers and tests compile
//! and pass as before.

use std::sync::OnceLock;

use uc_obs::{Counter, CounterFamily, Label, Registry, WindowSeries};

/// Monotonic counters for database activity. The counters are lock-free;
/// the per-tenant commit series take the registry's lock once, to register.
#[derive(Debug, Default)]
pub struct DbStats {
    reads: Counter,
    scans: Counter,
    /// Keys `scan_prefix`, `scan_chain` and `pred_in_range` visited,
    /// tombstones and superseded chains included: the work a scan does,
    /// where `scans` counts the calls.
    steps: Counter,
    writes: Counter,
    commits: Counter,
    conflicts: Counter,
    /// Where the per-tenant commit series are registered.
    registry: Registry,
    /// `txdb.commit.count.by_tenant` and `txdb.commit.window`, registered
    /// by the first commit a request's tenant scope attributes: a
    /// database nobody wrote to on a tenant's behalf shows neither.
    by_tenant: OnceLock<(CounterFamily, WindowSeries)>,
}

impl DbStats {
    /// Stats whose counters live in `registry` under `txdb.*` names.
    pub fn wired(registry: &Registry) -> Self {
        DbStats {
            reads: registry.counter("txdb.read.count"),
            scans: registry.counter("txdb.scan.count"),
            // Not registered: how many keys a seek walks depends on where
            // uid-bearing keys sort, which would break the byte-stable
            // snapshots. Read it through `DbStats::steps`.
            steps: Counter::default(),
            writes: registry.counter("txdb.write.rows"),
            commits: registry.counter("txdb.commit.count"),
            conflicts: registry.counter("txdb.commit.conflicts"),
            registry: registry.clone(),
            by_tenant: OnceLock::new(),
        }
    }

    /// Attribute one commit, which took `elapsed_ms` up to `now_ms`, to
    /// the tenant `label`.
    pub fn record_tenant_commit(&self, label: &Label, now_ms: u64, elapsed_ms: u64) {
        let (count, window) = self.by_tenant.get_or_init(|| {
            let count = self.registry.counter_family("txdb.commit.count.by_tenant");
            (count, self.registry.window("txdb.commit.window"))
        });
        count.inc(label);
        window.record(now_ms, elapsed_ms);
    }

    pub fn record_read(&self) {
        self.reads.inc();
    }

    pub fn record_scan(&self) {
        self.scans.inc();
    }

    pub fn record_steps(&self, n: u64) {
        self.steps.add(n);
    }

    pub fn record_write(&self, n: u64) {
        self.writes.add(n);
    }

    pub fn record_commit(&self) {
        self.commits.inc();
    }

    pub fn record_conflict(&self) {
        self.conflicts.inc();
    }

    pub fn reads(&self) -> u64 {
        self.reads.get()
    }

    pub fn scans(&self) -> u64 {
        self.scans.get()
    }

    pub fn steps(&self) -> u64 {
        self.steps.get()
    }

    pub fn writes(&self) -> u64 {
        self.writes.get()
    }

    pub fn commits(&self) -> u64 {
        self.commits.get()
    }

    pub fn conflicts(&self) -> u64 {
        self.conflicts.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = DbStats::default();
        s.record_read();
        s.record_read();
        s.record_write(3);
        s.record_commit();
        s.record_conflict();
        s.record_scan();
        s.record_steps(4);
        assert_eq!(s.reads(), 2);
        assert_eq!(s.steps(), 4);
        assert_eq!(s.writes(), 3);
        assert_eq!(s.commits(), 1);
        assert_eq!(s.conflicts(), 1);
        assert_eq!(s.scans(), 1);
    }

    #[test]
    fn wired_stats_surface_in_registry_snapshot() {
        let registry = Registry::new();
        let s = DbStats::wired(&registry);
        s.record_commit();
        s.record_write(2);
        assert_eq!(registry.counter("txdb.commit.count").get(), 1);
        assert_eq!(registry.counter("txdb.write.rows").get(), 2);
        let snap = registry.text_snapshot();
        assert!(snap.contains("txdb.commit.count counter 1"));
        assert!(snap.contains("txdb.write.rows counter 2"));
        assert!(!snap.contains("txdb.commit.window"), "no tenant commit, no tenant series");
        s.record_tenant_commit(&Label::tenant("a", "b"), 10, 3);
        let snap = registry.text_snapshot_at(10);
        assert!(snap.contains("txdb.commit.count.by_tenant{t=a,p=b} counter 1"));
        assert!(snap.contains("txdb.commit.window window"));
    }
}
