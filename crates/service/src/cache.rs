//! The cross-request artifact cache, which the fleet service runs as a
//! report cache.
//!
//! Maps a [`ContentDigest`] cache key (application content combined with
//! the engine/request knob digests — see [`crate::Service`]) to an
//! immutable value behind an [`Arc`]. The fleet service stores one
//! synthesis outcome per key, so a repeated request is answered without
//! resolving, preparing or synthesizing anything. The type parameter
//! defaults to [`PreparedApp`] (the owned model tables and compiled
//! utilities a synthesis run needs) for callers that cache the
//! per-application artifact instead. A hit costs one lock acquisition and
//! one `Arc` clone; whatever the caller does with the value runs outside
//! the lock.
//!
//! Eviction is least-recently-used over a capacity bound. The map is
//! small (hundreds of entries, each a few hundred KB at most), so LRU is
//! tracked with a monotonic use-stamp per entry and eviction scans for
//! the minimum — O(capacity), which at these sizes is cheaper and
//! simpler than an intrusive list, and never wrong.
//!
//! Builds happen *outside* the lock. With [`ArtifactCache::get`] and
//! [`ArtifactCache::insert`], two callers missing on the same key
//! concurrently both build and both insert (last write wins — the values
//! are bit-identical by construction, so which `Arc` survives is
//! unobservable). The service looks up through `get_or_claim` instead: a
//! miss claims the key's build, and a concurrent caller asking for that
//! key waits for the build rather than repeating it, so one key is
//! synthesized once however many workers ask for it at the same moment.
//! Builds of different keys never wait for each other.

use ftqs_core::{ContentDigest, PreparedApp};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Counters and occupancy of an [`ArtifactCache`], as one coherent
/// snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing (each implies one build).
    pub misses: u64,
    /// Entries displaced by the capacity bound.
    pub evictions: u64,
    /// Live entries at snapshot time.
    pub entries: usize,
    /// The capacity bound.
    pub capacity: usize,
}

impl CacheStats {
    /// Hit fraction over all lookups (0 when no lookups happened).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

#[derive(Debug)]
struct Entry<V> {
    value: Arc<V>,
    last_used: u64,
}

#[derive(Debug)]
struct Inner<V> {
    map: HashMap<ContentDigest, Entry<V>>,
    /// Keys whose build a [`BuildClaim`] holds.
    building: HashSet<ContentDigest>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<V> Inner<V> {
    /// Looks `key` up, counting a hit or a miss and refreshing recency.
    fn lookup(&mut self, key: ContentDigest) -> Option<Arc<V>> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(&key) {
            Some(entry) => {
                entry.last_used = tick;
                let value = Arc::clone(&entry.value);
                self.hits += 1;
                Some(value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }
}

/// Bounded, thread-safe LRU cache of immutable synthesis artifacts.
#[derive(Debug)]
pub struct ArtifactCache<V = PreparedApp> {
    inner: Mutex<Inner<V>>,
    /// Signalled whenever a [`BuildClaim`] is released.
    built: Condvar,
    capacity: usize,
}

/// The claim on building one missing key, from
/// [`ArtifactCache::get_or_claim`]. Other callers asking for the key wait
/// while it lives. [`BuildClaim::fill`] inserts the built value; dropping
/// the claim unfilled — the build failed, panicked, or produced nothing
/// cacheable — lets the next waiter claim the build instead.
#[derive(Debug)]
pub(crate) struct BuildClaim<'a, V> {
    cache: &'a ArtifactCache<V>,
    key: ContentDigest,
}

impl<V> BuildClaim<'_, V> {
    /// Inserts the built value under the claimed key, then releases the
    /// claim.
    pub(crate) fn fill(self, value: Arc<V>) {
        self.cache.insert(self.key, value);
    }
}

impl<V> Drop for BuildClaim<'_, V> {
    fn drop(&mut self) {
        self.cache.lock_inner().building.remove(&self.key);
        self.cache.built.notify_all();
    }
}

impl<V> ArtifactCache<V> {
    /// An empty cache bounded to `capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        ArtifactCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                building: HashSet::new(),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            built: Condvar::new(),
            capacity,
        }
    }

    /// Locks the cache state, recovering from poisoning: no method can
    /// panic while the map is half-mutated (the entry type has no
    /// panicking paths between mutations), so the state behind a
    /// poisoned lock is still coherent — a panicking worker thread must
    /// never wedge the rest of the fleet out of the cache.
    fn lock_inner(&self) -> MutexGuard<'_, Inner<V>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks `key` up, counting a hit or a miss and refreshing recency.
    #[must_use]
    pub fn get(&self, key: ContentDigest) -> Option<Arc<V>> {
        self.lock_inner().lookup(key)
    }

    /// Like [`ArtifactCache::get`], but a miss returns the claim on
    /// building `key` (see [`BuildClaim`]). While another caller holds
    /// that claim, this waits for it to be released and then looks again,
    /// so a hit may follow a wait and a miss always means one build.
    pub(crate) fn get_or_claim(&self, key: ContentDigest) -> Result<Arc<V>, BuildClaim<'_, V>> {
        let mut inner = self.lock_inner();
        while inner.building.contains(&key) {
            inner = self
                .built
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
        match inner.lookup(key) {
            Some(value) => Ok(value),
            None => {
                inner.building.insert(key);
                Err(BuildClaim { cache: self, key })
            }
        }
    }

    /// Inserts (or refreshes) `key`, evicting the least-recently-used
    /// entry when the capacity bound is hit. Re-inserting an existing key
    /// replaces its value without counting an eviction.
    pub fn insert(&self, key: ContentDigest, value: Arc<V>) {
        let mut inner = self.lock_inner();
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
            let lru = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k)
                .expect("capacity > 0 means a non-empty full map");
            inner.map.remove(&lru);
            inner.evictions += 1;
        }
        inner.map.insert(
            key,
            Entry {
                value,
                last_used: tick,
            },
        );
    }

    /// A coherent snapshot of the counters and occupancy.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock_inner();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.map.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftqs_core::{
        application_digest, Application, ExecutionTimes, FaultModel, Time, UtilityFunction,
    };

    fn app(period_ms: u64) -> Application {
        let mut b = Application::builder(
            Time::from_ms(period_ms),
            FaultModel::new(1, Time::from_ms(10)),
        );
        let p1 = b.add_hard(
            "P1",
            ExecutionTimes::uniform(Time::from_ms(30), Time::from_ms(70)).unwrap(),
            Time::from_ms(180),
        );
        let p2 = b.add_soft(
            "P2",
            ExecutionTimes::uniform(Time::from_ms(30), Time::from_ms(70)).unwrap(),
            UtilityFunction::step(40.0, [(Time::from_ms(90), 20.0)]).unwrap(),
        );
        b.add_dependency(p1, p2).unwrap();
        b.build().unwrap()
    }

    fn prepared(period_ms: u64) -> (ContentDigest, Arc<PreparedApp>) {
        let a = app(period_ms);
        (application_digest(&a), Arc::new(PreparedApp::new(&a)))
    }

    #[test]
    fn hit_miss_and_eviction_counters() {
        let cache = ArtifactCache::new(2);
        let (k1, v1) = prepared(300);
        let (k2, v2) = prepared(400);
        let (k3, v3) = prepared(500);

        assert!(cache.get(k1).is_none());
        cache.insert(k1, v1);
        assert!(cache.get(k1).is_some());
        cache.insert(k2, v2);
        // k1 was last touched before k2's insertion, so the third insert
        // displaces k1.
        cache.insert(k3, v3);
        assert!(cache.get(k1).is_none(), "LRU entry evicted");
        assert!(cache.get(k2).is_some());
        assert!(cache.get(k3).is_some());

        let stats = cache.stats();
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.capacity, 2);
        assert!((stats.hit_rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn reinserting_a_key_is_not_an_eviction() {
        let cache = ArtifactCache::new(1);
        let (k1, v1) = prepared(300);
        cache.insert(k1, Arc::clone(&v1));
        cache.insert(k1, v1);
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn a_claimed_key_is_built_once_and_an_unfilled_claim_passes_on() {
        let cache = ArtifactCache::new(4);
        let (k1, v1) = prepared(300);
        let claim = cache.get_or_claim(k1).expect_err("cold key");
        std::thread::scope(|s| {
            let waiter = s.spawn(|| cache.get_or_claim(k1).is_ok());
            // The waiter cannot return before the claim is filled: it
            // either blocks on the claim or arrives after the fill.
            claim.fill(v1);
            assert!(waiter.join().unwrap(), "the waiter is served the fill");
        });
        let (k2, v2) = prepared(400);
        drop(cache.get_or_claim(k2).expect_err("cold key"));
        let claim = cache.get_or_claim(k2).expect_err("nothing was filled");
        claim.fill(v2);
        assert!(cache.get_or_claim(k2).is_ok());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 3));
    }

    #[test]
    fn recency_is_refreshed_by_get() {
        let cache = ArtifactCache::new(2);
        let (k1, v1) = prepared(300);
        let (k2, v2) = prepared(400);
        let (k3, v3) = prepared(500);
        cache.insert(k1, v1);
        cache.insert(k2, v2);
        assert!(cache.get(k1).is_some()); // refresh k1: k2 is now LRU
        cache.insert(k3, v3);
        assert!(cache.get(k1).is_some());
        assert!(cache.get(k2).is_none(), "k2 was the LRU entry");
    }
}
