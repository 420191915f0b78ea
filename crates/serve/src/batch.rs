//! Group-commit batching for engine metadata resolution.
//!
//! Concurrent `resolve` requests combine instead of queueing behind one
//! another: every arrival enqueues its refs, and the first arrival with
//! no active leader elects itself *batch leader*. The leader drains the
//! queue a compatible group at a time — same principal, engine identity,
//! workspace, and credential mode, so one combined call is
//! authorization-equivalent to the per-request calls it replaces — and
//! executes a single `UnityCatalog::resolve_for_query` for the whole
//! group, splitting the positional result back onto each request's slot.
//! There is no dispatcher thread and no timer: batch size grows with
//! concurrency naturally (a lone request is a batch of one), exactly the
//! group-commit shape write-ahead logs use.
//!
//! The policy is two non-blocking steps on [`Batcher`] —
//! [`Batcher::enqueue`] (queue, elect, or refuse) and
//! [`Batcher::next_group`] (take one compatible group) — which
//! `ServePlane::drain` loops over. A thread enqueues, drains if it was
//! elected, then collects from its slot; the replay enqueues a whole
//! quantum, drains once, and collects them all.
//!
//! The leader keeps draining until the queue is empty, *including groups
//! it is not itself part of* — the leader-active flag guarantees some
//! thread owns every enqueued item, and the flag only clears under the
//! same lock that proves the queue is empty, so no item can be enqueued
//! and then orphaned. If the combined call fails, the leader falls back
//! to one call per item so one poisoned request cannot fail its whole
//! group.
//!
//! The queue is bounded by [`BATCH_QUEUE_CAPACITY`] (checked before the
//! push — the `bounded-queue` lint invariant); overflow sheds with the
//! same audited-429 contract as admission.

use std::sync::Arc;

use parking_lot::Mutex;
use uc_catalog::service::resolve::ResolvedSecurable;
use uc_catalog::service::Context;
use uc_catalog::{FullName, UcResult, Uid};
use uc_cloudstore::sched::yield_point;

use crate::admission::AdmissionGuard;
use crate::slot::Slot;
use crate::{points, Role, ServePlane, Served};

/// Bound on the combining queue across tenants: belt-and-braces on top
/// of per-tenant admission, so no caller has ever needed another value.
pub const BATCH_QUEUE_CAPACITY: usize = 1024;

/// Authorization-relevant identity of a resolve request: the whole
/// request context (principal, engine identity, workspace), the
/// metastore and the credential mode. Only requests with identical
/// signatures may share a combined catalog call.
#[derive(Clone, PartialEq, Eq)]
pub struct Signature {
    pub ms: Uid,
    pub ctx: Context,
    pub want_credentials: bool,
}

/// One queued resolve request; `slot` receives its split of a combined
/// result.
pub struct PendingItem {
    pub sig: Signature,
    pub refs: Vec<FullName>,
    pub slot: Arc<Slot<Vec<ResolvedSecurable>>>,
}

impl PendingItem {
    pub fn new(sig: Signature, refs: Vec<FullName>) -> PendingItem {
        PendingItem { sig, refs, slot: Arc::new(Slot::new()) }
    }
}

struct BatchState {
    items: Vec<PendingItem>,
    leader_active: bool,
}

/// The combining queue plus leader-election flag.
pub struct Batcher {
    pending: Mutex<BatchState>,
}

impl Default for Batcher {
    fn default() -> Batcher {
        Batcher {
            pending: Mutex::new(BatchState { items: Vec::new(), leader_active: false }),
        }
    }
}

impl Batcher {
    /// Queued (not yet dispatched) resolve requests (introspection).
    pub fn queued(&self) -> usize {
        let pending = self.pending.lock();
        pending.items.len()
    }

    /// Queue one request. `Some(true)` elects the caller batch leader —
    /// it must drain; `Some(false)` means a leader already owns the
    /// queue; `None` means the queue is full and the caller must shed.
    /// [admission]
    pub fn enqueue(&self, item: PendingItem) -> Option<bool> {
        let mut pending = self.pending.lock();
        if pending.items.len() >= BATCH_QUEUE_CAPACITY {
            return None;
        }
        pending.items.push(item);
        Some(!std::mem::replace(&mut pending.leader_active, true))
    }

    /// Take the head request and every queued request sharing its
    /// signature, up to `max_batch`, leaving the rest in arrival order.
    /// `None` means the queue is empty and leadership is released — the
    /// flag clears under the lock that observes emptiness, so every
    /// enqueued item is owned by exactly one leader.
    pub fn next_group(&self, max_batch: usize) -> Option<Vec<PendingItem>> {
        let mut pending = self.pending.lock();
        let Some(head) = pending.items.first() else {
            pending.leader_active = false;
            return None;
        };
        let sig = head.sig.clone();
        let mut group = Vec::new();
        let mut rest = Vec::new();
        for item in pending.items.drain(..) {
            if group.len() < max_batch.max(1) && item.sig == sig {
                group.push(item);
            } else {
                rest.push(item);
            }
        }
        pending.items = rest;
        Some(group)
    }
}

/// An admitted resolve that is queued (or, with batching off, already
/// served) and not yet collected; it holds the tenant's admission slot
/// until it is.
pub(crate) struct Queued<'a> {
    _admitted: AdmissionGuard<'a>,
    slot: Arc<Slot<Vec<ResolvedSecurable>>>,
    role: Role,
}

impl Queued<'_> {
    /// Elected batch leader: must [`ServePlane::drain`] before collecting.
    pub(crate) fn leads(&self) -> bool {
        self.role == Role::Leader
    }

    /// Take this request's result. A leader's own item was served by
    /// some dispatch of its drain (which only returns once the queue is
    /// empty), so it never waits; followers wait for whichever leader
    /// owns the queue.
    pub(crate) fn collect(self) -> UcResult<Served<Vec<ResolvedSecurable>>> {
        self.slot.wait().map(|value| Served { value, role: self.role, key_version: 0 })
    }
}

impl ServePlane {
    /// Admit a resolve and queue it. With batching off the request runs
    /// here, alone, and the drain it then owes as a leader finds the
    /// never-used queue empty.
    pub(crate) fn enqueue_resolve(
        &self,
        ctx: &Context,
        ms: &Uid,
        refs: Vec<FullName>,
        want_credentials: bool,
    ) -> UcResult<Queued<'_>> {
        let admitted = self.admit(ms, &ctx.principal, "resolve")?;
        let sig = Signature { ms: ms.clone(), ctx: ctx.clone(), want_credentials };
        let item = PendingItem::new(sig, refs);
        let slot = Arc::clone(&item.slot);
        let role = if self.cfg.batch {
            yield_point(points::SERVE_BATCH);
            match self.batcher.enqueue(item) {
                Some(true) => Role::Leader,
                Some(false) => Role::Follower,
                None => {
                    let capacity = BATCH_QUEUE_CAPACITY;
                    let why = format!("resolve: batch queue full (capacity {capacity})");
                    return Err(self.shed(&ctx.principal, &admitted.label, why));
                }
            }
        } else {
            yield_point(points::SERVE_DISPATCH);
            slot.publish(self.uc.resolve_for_query(ctx, ms, &item.refs, want_credentials));
            Role::Leader
        };
        Ok(Queued { _admitted: admitted, slot, role })
    }

    /// Leader loop: dispatch compatible groups until the queue is empty
    /// — including groups the leader is not part of. Returns the number
    /// of combined calls made.
    pub(crate) fn drain(&self) -> u64 {
        let mut dispatched = 0;
        while let Some(group) = self.batcher.next_group(self.cfg.max_batch) {
            yield_point(points::SERVE_DISPATCH);
            self.dispatch(&group);
            dispatched += 1;
        }
        dispatched
    }

    /// Execute one compatible group as a single combined call and split
    /// the positional result back onto each item's slot.
    fn dispatch(&self, group: &[PendingItem]) {
        let Signature { ms, ctx, want_credentials } = &group[0].sig;
        self.metrics.batches.inc();
        self.metrics.batch_size.record(group.len() as u64);
        let combined: Vec<FullName> =
            group.iter().flat_map(|item| item.refs.iter().cloned()).collect();
        match self.uc.resolve_for_query(ctx, ms, &combined, *want_credentials) {
            Ok(resolved) => {
                let mut resolved = resolved.into_iter();
                for item in group {
                    let split = resolved.by_ref().take(item.refs.len()).collect();
                    item.slot.publish(Ok(split));
                }
            }
            Err(_) => {
                // Combined call failed (e.g. one ref denied poisons the
                // batch): retry per item so each request gets its own
                // success-or-error, preserving single-request semantics.
                for item in group {
                    let one = self.uc.resolve_for_query(ctx, ms, &item.refs, *want_credentials);
                    item.slot.publish(one);
                }
            }
        }
    }
}
