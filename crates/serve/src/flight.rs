//! Single-flight coalescing for point metadata reads.
//!
//! Concurrent `getTable` requests for the same flight key share one
//! catalog execution: the first arrival (the *leader*) runs the call —
//! one database miss, one audit record — and every concurrent duplicate
//! (a *follower*) subscribes to the leader's result. The flight key is
//! `(metastore, principal, table name, metastore cache version)`:
//!
//! * the **principal** keeps authorization per-caller — two principals
//!   never share a flight, so each gets its own authz decision and its
//!   own audit trail;
//! * the **cache version** is the read-your-snapshot hinge — an
//!   invalidation advances the version, so a request that observed the
//!   invalidation computes a *different* key and can never join (and be
//!   answered from) a pre-invalidation flight. uc-check's
//!   `coalesce_clients` schedules drive this adversarially.
//!
//! The policy is two non-blocking steps on [`FlightMap`] —
//! [`FlightMap::join`] decides lead-or-follow, [`FlightMap::finish`]
//! retires the flight and publishes — wrapped by `ServePlane::board`
//! (admit, then join) and `Flight::land` (lead or follow to a result).
//! A thread calls the two back to back; the replay boards a whole
//! quantum first and lands the leaders before the followers. A flight is
//! removed from the map *before* its result is published, so a late
//! arrival after completion starts a fresh flight — which then hits the
//! catalog cache.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use uc_catalog::service::Context;
use uc_catalog::{Entity, UcResult, Uid};
use uc_cloudstore::sched::yield_point;

use crate::admission::AdmissionGuard;
use crate::slot::Slot;
use crate::{points, Role, ServePlane, Served};

/// Flight identity: metastore, principal, table name, cache version.
pub type FlightKey = (Uid, String, String, u64);

/// What [`FlightMap::join`] decided; either way the request now shares
/// the flight's result slot.
pub enum Join {
    /// First arrival for the key: run the catalog call, then
    /// [`FlightMap::finish`].
    Lead(Arc<Slot<Arc<Entity>>>),
    /// A flight is already up: its leader will publish into this slot.
    Follow(Arc<Slot<Arc<Entity>>>),
}

/// The in-flight table of active flights. Entries exist only between a
/// leader's arrival and its publication, so the map is bounded by live
/// concurrency.
pub struct FlightMap {
    flights: Mutex<HashMap<FlightKey, Arc<Slot<Arc<Entity>>>>>,
}

impl Default for FlightMap {
    fn default() -> FlightMap {
        FlightMap { flights: Mutex::new(HashMap::new()) }
    }
}

impl FlightMap {
    /// Flights currently in progress (test/bench introspection).
    pub fn in_flight(&self) -> usize {
        let flights = self.flights.lock();
        flights.len()
    }

    /// Join the flight for `key`, or start one. Never blocks.
    pub fn join(&self, key: &FlightKey) -> Join {
        let mut flights = self.flights.lock();
        match flights.get(key) {
            Some(slot) => Join::Follow(Arc::clone(slot)),
            None => {
                let slot = Arc::new(Slot::new());
                flights.insert(key.clone(), Arc::clone(&slot));
                Join::Lead(slot)
            }
        }
    }

    /// Retire the flight, then publish the leader's result to its
    /// followers — in that order, so nobody can join a finished flight.
    pub fn finish(
        &self,
        key: &FlightKey,
        slot: &Slot<Arc<Entity>>,
        result: UcResult<Arc<Entity>>,
    ) {
        {
            let mut flights = self.flights.lock();
            flights.remove(key);
        }
        slot.publish(result);
    }
}

/// An admitted `getTable` that has joined its flight and not yet landed;
/// it holds the tenant's admission slot until it does.
pub(crate) struct Flight<'a> {
    plane: &'a ServePlane,
    admitted: AdmissionGuard<'a>,
    pub(crate) ctx: &'a Context,
    key: FlightKey,
    join: Join,
}

impl ServePlane {
    /// Admit a `getTable`, key it under the metastore's current cache
    /// version and join its flight. With coalescing off every request
    /// leads a flight nobody else can see.
    pub(crate) fn board<'a>(
        &'a self,
        ctx: &'a Context,
        ms: &Uid,
        name: &str,
    ) -> UcResult<Flight<'a>> {
        let admitted = self.admit(ms, &ctx.principal, "getTable")?;
        let version = self.uc.metastore_cache_version(ms);
        let key = (ms.clone(), ctx.principal.clone(), name.to_string(), version);
        let join = if self.cfg.coalesce {
            self.flights.join(&key)
        } else {
            Join::Lead(Arc::new(Slot::new()))
        };
        Ok(Flight { plane: self, admitted, ctx, key, join })
    }
}

impl Flight<'_> {
    pub(crate) fn leads(&self) -> bool {
        matches!(self.join, Join::Lead(_))
    }

    /// Run to a result: a leader executes the catalog call and finishes
    /// the flight, a follower waits on it.
    pub(crate) fn land(self) -> UcResult<Served<Arc<Entity>>> {
        let Flight { plane, admitted, ctx, key, join } = &self;
        let label = &admitted.label;
        let (ms, _, name, key_version) = key;
        let (result, role) = match join {
            Join::Lead(slot) => {
                yield_point(points::SERVE_DISPATCH);
                // The catalog call runs with no serve lock held; it takes
                // its own pool permits and cache shard locks internally.
                let result = plane.uc.get_table(ctx, ms, name);
                plane.flights.finish(key, slot, result.clone());
                plane.metrics.leaders.inc();
                plane.metrics.leaders_by.inc(label);
                (result, Role::Leader)
            }
            Join::Follow(slot) => {
                let result = slot.wait();
                plane.metrics.followers.inc();
                plane.metrics.followers_by.inc(label);
                (result, Role::Follower)
            }
        };
        result.map(|value| Served { value, role, key_version: *key_version })
    }
}
