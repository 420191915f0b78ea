//! Bounded per-tenant admission control.
//!
//! Each tenant — a `(metastore, principal)` pair — owns a bounded
//! in-flight budget. [`Admission::try_admit`] checks the budget *before*
//! incrementing (the queue can never grow past capacity, the invariant
//! the `bounded-queue` lint rule enforces on this module) and hands back
//! a guard that releases the slot on drop, so every exit path — success,
//! catalog error, panic unwinding through a bench harness — returns the
//! slot. Depth accounting feeds the `serve.queue.depth` gauge and the
//! per-tenant depth histograms; the shed itself (audit + 429) is the
//! caller's `ServePlane::shed`, shared with the batch queue's bound.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use uc_catalog::Uid;

use crate::ServeMetrics;

/// Per-tenant in-flight request counts. Entries exist only while a
/// tenant has at least one request in flight, so the map's size is
/// bounded by live concurrency, not tenant population.
pub(crate) struct Admission {
    admission: Mutex<HashMap<(Uid, String), usize>>,
}

impl Admission {
    pub(crate) fn new() -> Admission {
        Admission { admission: Mutex::new(HashMap::new()) }
    }

    /// Admit one request for `(ms, principal)` if the tenant is under
    /// `capacity`, returning the slot guard; `None` means the caller
    /// must shed. The capacity check happens before the increment, under
    /// the same lock, so depth never exceeds `capacity`.
    /// [admission]
    pub(crate) fn try_admit<'a>(
        &'a self,
        ms: &Uid,
        principal: &str,
        capacity: usize,
        metrics: &'a ServeMetrics,
        label: &Arc<str>,
    ) -> Option<AdmissionGuard<'a>> {
        let key = (ms.clone(), principal.to_string());
        let depth = {
            let mut admission = self.admission.lock();
            let depth = admission.entry(key.clone()).or_insert(0);
            if *depth >= capacity {
                // Leave the entry for concurrent in-flight requests; a
                // zero entry is reaped by the last guard's drop.
                if *depth == 0 {
                    admission.remove(&key);
                }
                return None;
            }
            *depth += 1;
            *depth
        };
        metrics.admitted.inc();
        metrics.admitted_by.inc(label);
        metrics.queue_depth.add(1);
        metrics.depth_hist.record(depth as u64);
        metrics.depth_by.record(label, depth as u64);
        Some(AdmissionGuard { admission: self, metrics, key, label: Arc::clone(label) })
    }

    fn release(&self, key: &(Uid, String)) {
        let mut admission = self.admission.lock();
        if let Some(depth) = admission.get_mut(key) {
            *depth = depth.saturating_sub(1);
            if *depth == 0 {
                admission.remove(key);
            }
        }
    }
}

/// An admitted request's slot; dropping it releases the tenant's budget.
pub struct AdmissionGuard<'a> {
    admission: &'a Admission,
    metrics: &'a ServeMetrics,
    key: (Uid, String),
    /// The request's `t=<alias>,p=<principal>` metric label, rendered
    /// once at admission for every later step that counts.
    pub(crate) label: Arc<str>,
}

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        self.admission.release(&self.key);
        self.metrics.queue_depth.add(-1);
    }
}
