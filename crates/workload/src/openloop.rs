//! Open-loop arrival generator for the serving plane.
//!
//! The closed-loop harness in `uc-bench` measures *capacity*: N workers
//! issue the next request the moment the previous one returns, so offered
//! load adapts to service time and an overloaded system never shows
//! queueing. A serving plane with admission control needs the opposite:
//! an **open-loop** schedule where arrivals keep coming at their own rate
//! whether or not the server keeps up — that is where queues grow, shed
//! decisions happen, and the Fig 10b knee appears.
//!
//! The generator reuses the paper-calibrated building blocks from
//! [`crate::trace`] (merged-Poisson interarrivals — the Fig 5 model) and
//! [`crate::randx`] (seeded streams, Zipf popularity): arrivals are a
//! Poisson process at `rate_per_s`, attributed to Zipf-popular tenants
//! and, within a tenant, Zipf-popular keys, issued by a client id drawn
//! from a population of millions (Fig 9's client diversity: each tenant's
//! traffic comes from many distinct external clients). Everything is a
//! pure function of the seed, so a schedule replays byte-identically —
//! the serving-plane CI gates diff two replays.

use crate::randx::{exponential, rng_for, Zipf};
use rand::Rng;

/// What one arrival asks the serving plane to do. Key indices are
/// resolved to concrete table names by the driver binding the schedule to
/// a world.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestKind {
    /// Point metadata read (`getTable`) of the arrival's key.
    GetTable,
    /// Batched engine resolution over these key indices (the arrival's
    /// own key first) — the Fig 1 "life of a SQL query" step.
    Resolve { keys: Vec<usize> },
}

/// One request arrival in virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    pub at_ms: u64,
    /// Tenant (metastore) index in `0..tenants`.
    pub tenant: usize,
    /// Distinct external client issuing the request (Fig 9 diversity).
    pub client: u64,
    /// Primary key index in `0..keys_per_tenant`.
    pub key: usize,
    pub kind: RequestKind,
}

/// Parameters of an open-loop schedule.
#[derive(Debug, Clone)]
pub struct OpenLoopParams {
    pub seed: u64,
    /// Virtual-time horizon of the schedule.
    pub horizon_ms: u64,
    /// Aggregate Poisson arrival rate across all tenants.
    pub rate_per_s: f64,
    /// Distinct tenants (metastores); popularity is Zipf(`tenant_zipf`).
    pub tenants: usize,
    pub tenant_zipf: f64,
    /// Distinct keys per tenant; popularity is Zipf(`key_zipf`) — the
    /// skew that makes concurrent same-key misses common.
    pub keys_per_tenant: usize,
    pub key_zipf: f64,
    /// Distinct client-id population per tenant (the paper serves
    /// millions of distinct clients; ids only label arrivals).
    pub clients_per_tenant: u64,
    /// Fraction of arrivals that are batched `Resolve` requests instead
    /// of point `GetTable` reads.
    pub resolve_fraction: f64,
    /// Refs per `Resolve` request are uniform in `1..=max_refs_per_resolve`.
    pub max_refs_per_resolve: usize,
}

impl OpenLoopParams {
    /// A serving-plane mix shaped like the paper's workload figures:
    /// Fig 5 Poisson arrivals, Fig 9 client diversity, read-dominated
    /// engine traffic with a batched-resolve minority.
    pub fn fig5(seed: u64, rate_per_s: f64) -> OpenLoopParams {
        OpenLoopParams {
            seed,
            horizon_ms: 1_000,
            rate_per_s,
            tenants: 4,
            tenant_zipf: 1.1,
            keys_per_tenant: 16,
            key_zipf: 1.1,
            clients_per_tenant: 1_000_000,
            resolve_fraction: 0.2,
            max_refs_per_resolve: 8,
        }
    }
}

/// A fully materialized, deterministic arrival schedule (sorted by
/// `at_ms`; ties keep generation order).
#[derive(Debug, Clone)]
pub struct Schedule {
    pub params: OpenLoopParams,
    pub arrivals: Vec<Arrival>,
}

impl Schedule {
    /// Generate the schedule. Pure function of `params` (stream 500 of
    /// the seed, disjoint from the trace/population generators).
    pub fn generate(params: &OpenLoopParams) -> Schedule {
        let mut rng = rng_for(params.seed, 500);
        let tenant_pick = Zipf::new(params.tenants.max(1), params.tenant_zipf);
        let key_pick = Zipf::new(params.keys_per_tenant.max(1), params.key_zipf);
        let rate_per_ms = params.rate_per_s / 1_000.0;
        let mut arrivals = Vec::new();
        let mut t = 0.0f64;
        loop {
            t += exponential(&mut rng, rate_per_ms);
            let at_ms = t as u64;
            if at_ms >= params.horizon_ms {
                break;
            }
            let tenant = tenant_pick.sample(&mut rng);
            let key = key_pick.sample(&mut rng);
            let client = tenant as u64 * params.clients_per_tenant
                + rng.gen_range(0..params.clients_per_tenant.max(1));
            let kind = if rng.gen_bool(params.resolve_fraction.clamp(0.0, 1.0)) {
                let n = rng.gen_range(1..=params.max_refs_per_resolve.max(1));
                let mut keys = Vec::with_capacity(n);
                keys.push(key);
                for _ in 1..n {
                    keys.push(key_pick.sample(&mut rng));
                }
                RequestKind::Resolve { keys }
            } else {
                RequestKind::GetTable
            };
            arrivals.push(Arrival { at_ms, tenant, client, key, kind });
        }
        Schedule { params: params.clone(), arrivals }
    }

    /// Distinct client ids appearing in the schedule.
    pub fn distinct_clients(&self) -> usize {
        let s: std::collections::BTreeSet<u64> =
            self.arrivals.iter().map(|a| a.client).collect();
        s.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic() {
        let p = OpenLoopParams::fig5(7, 5_000.0);
        let a = Schedule::generate(&p);
        let b = Schedule::generate(&p);
        assert_eq!(a.arrivals, b.arrivals);
        assert!(!a.arrivals.is_empty());
    }

    #[test]
    fn realized_rate_tracks_offered_rate() {
        let mut p = OpenLoopParams::fig5(11, 20_000.0);
        p.horizon_ms = 2_000;
        let s = Schedule::generate(&p);
        let rate = s.arrivals.len() as f64 * 1_000.0 / p.horizon_ms as f64;
        assert!((rate - 20_000.0).abs() < 2_000.0, "rate {rate}");
        // Arrivals are sorted in time.
        assert!(s.arrivals.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
    }

    #[test]
    fn client_population_is_diverse() {
        let mut p = OpenLoopParams::fig5(13, 50_000.0);
        p.horizon_ms = 1_000;
        let s = Schedule::generate(&p);
        // Tens of thousands of arrivals drawn from millions of ids:
        // almost every arrival is a distinct client.
        let distinct = s.distinct_clients();
        assert!(
            distinct as f64 > s.arrivals.len() as f64 * 0.95,
            "distinct {distinct} of {}",
            s.arrivals.len()
        );
        // Client ids land in their tenant's id space.
        for a in &s.arrivals {
            let base = a.tenant as u64 * p.clients_per_tenant;
            assert!(a.client >= base && a.client < base + p.clients_per_tenant);
        }
    }

    #[test]
    fn key_popularity_is_skewed() {
        let p = OpenLoopParams::fig5(17, 30_000.0);
        let s = Schedule::generate(&p);
        let mut counts = vec![0u64; p.keys_per_tenant];
        for a in &s.arrivals {
            counts[a.key] += 1;
        }
        // Zipf rank 0 dominates the tail.
        assert!(counts[0] > counts[p.keys_per_tenant - 1] * 3);
    }

    #[test]
    fn resolve_requests_carry_bounded_refs() {
        let p = OpenLoopParams::fig5(19, 10_000.0);
        let s = Schedule::generate(&p);
        let mut resolves = 0usize;
        for a in &s.arrivals {
            if let RequestKind::Resolve { keys } = &a.kind {
                resolves += 1;
                assert!(!keys.is_empty() && keys.len() <= p.max_refs_per_resolve);
                assert_eq!(keys[0], a.key);
            }
        }
        let frac = resolves as f64 / s.arrivals.len() as f64;
        assert!((frac - p.resolve_fraction).abs() < 0.05, "frac {frac}");
    }
}
