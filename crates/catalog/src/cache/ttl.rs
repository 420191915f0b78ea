//! TTL cache for immutable or weakly-consistent metadata.
//!
//! The paper uses simple TTL-bounded caches for metadata whose staleness
//! is acceptable or whose validity is intrinsic — most importantly vended
//! temporary storage credentials, which carry their own expiry and can be
//! reused across queries for their remaining lifetime.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

use parking_lot::RwLock;
use uc_cloudstore::Clock;
use uc_obs::Counter;

/// A clock-driven TTL cache. Its hit and miss counts are striped
/// [`Counter`]s, so a hit writes no cache line another thread's hit
/// writes.
pub struct TtlCache<K, V> {
    inner: RwLock<HashMap<K, (V, u64)>>,
    clock: Clock,
    ttl_ms: u64,
    hits: Counter,
    misses: Counter,
}

impl<K: Eq + Hash + Clone, V: Clone> TtlCache<K, V> {
    pub fn new(clock: Clock, ttl_ms: u64) -> Self {
        TtlCache {
            inner: RwLock::new(HashMap::new()),
            clock,
            ttl_ms,
            hits: Counter::new(),
            misses: Counter::new(),
        }
    }

    /// Get a live entry; expired entries count as misses. Accepts any
    /// borrowed form of the key (`&str` for `String` keys) so hot-path
    /// probes don't allocate an owned key just to look up.
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let now = self.clock.now_ms();
        let guard = self.inner.read();
        match guard.get(key) {
            Some((v, expires)) if *expires > now => {
                self.hits.inc();
                Some(v.clone())
            }
            _ => {
                self.misses.inc();
                None
            }
        }
    }

    /// Insert with the cache's default TTL.
    pub fn put(&self, key: K, value: V) {
        self.put_with_expiry(key, value, self.clock.now_ms() + self.ttl_ms);
    }

    /// Insert with an explicit absolute expiry — used for credentials,
    /// whose cache lifetime must not exceed the token's own expiry.
    pub fn put_with_expiry(&self, key: K, value: V, expires_at_ms: u64) {
        self.inner.write().insert(key, (value, expires_at_ms));
    }

    /// Drop these entries now, live or not: their subject is gone.
    pub fn remove_all(&self, keys: impl IntoIterator<Item = K>) {
        let mut guard = self.inner.write();
        for key in keys {
            guard.remove(&key);
        }
    }

    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }

    pub fn clear(&self) {
        self.inner.write().clear();
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_within_ttl_miss_after() {
        let clock = Clock::manual(0);
        let cache: TtlCache<&str, i32> = TtlCache::new(clock.clone(), 1_000);
        cache.put("k", 7);
        assert_eq!(cache.get(&"k"), Some(7));
        clock.advance_ms(999);
        assert_eq!(cache.get(&"k"), Some(7));
        clock.advance_ms(1);
        assert_eq!(cache.get(&"k"), None);
        assert_eq!(cache.stats(), (2, 1));
    }

    #[test]
    fn explicit_expiry_overrides_default() {
        let clock = Clock::manual(0);
        let cache: TtlCache<&str, i32> = TtlCache::new(clock.clone(), 1_000_000);
        cache.put_with_expiry("tok", 1, 100);
        clock.advance_ms(100);
        assert_eq!(cache.get(&"tok"), None);
    }

    #[test]
    fn overwrite_refreshes_value_and_expiry() {
        let clock = Clock::manual(0);
        let cache: TtlCache<&str, i32> = TtlCache::new(clock.clone(), 100);
        cache.put("k", 1);
        clock.advance_ms(90);
        cache.put("k", 2);
        clock.advance_ms(90);
        assert_eq!(cache.get(&"k"), Some(2));
    }
}
