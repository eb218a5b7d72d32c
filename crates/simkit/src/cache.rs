//! Memoization of expensive simulation sub-results.
//!
//! Several paper artifacts re-run the same underlying simulation: Figs. 8,
//! 9 and 10 each sweep the identical Alya strong-scaling study, and
//! Table IV re-runs HPL, HPCG and every application at node counts the
//! figures already visited. A [`Cache`] keyed by `(machine, workload,
//! params)` lets those callers reuse the first computation instead of
//! recomputing it.
//!
//! Since the evaluation-as-a-service work the cache is **two-tier**: the
//! in-memory table below, optionally backed by a disk
//! [`Store`](crate::store::Store) shared across processes. Lookups go
//! memory → disk → compute, and the accounting distinguishes the three
//! outcomes ([`TierCounters`]: `mem_hits` / `disk_hits` / `misses`).
//!
//! The cache is concurrency-safe and *compute-once*: each key owns a slot
//! protected by its own mutex, so when two callers race for the same key,
//! the second blocks until the first finishes and then reuses the value —
//! a single-flight map. Because the disk probe and the compute both happen
//! under the slot lock, two concurrent identical queries cost exactly one
//! disk read or one engine miss, never two. Values are stored type-erased;
//! a lookup with the wrong type for an existing key panics, which would
//! indicate two workloads sharing a key — a bug in key construction.
//!
//! Determinism contract: a cached value must be a pure function of its key.
//! All simulations in this workspace derive their PCG seeds from their own
//! parameters (never from shared mutable state), so replaying a computation
//! bit-identically reproduces the cached value — which is what makes
//! mem-hit, disk-hit and miss runs, and 1-thread and N-thread engine runs,
//! produce identical artifacts. The disk tier preserves this because the
//! [`codec`](crate::codec) round-trips every `f64` bit-for-bit.

use crate::store::{Store, StoreValue};
use std::any::Any;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Identity of one memoized sub-result.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    /// Machine (or cluster) the simulation targets, e.g. `"CTE-Arm"`.
    pub machine: String,
    /// Workload family, e.g. `"alya"`, `"hpl"`, `"osu-map"`.
    pub workload: String,
    /// Remaining parameters, rendered canonically (node count, config
    /// Debug dump, seed, ...).
    pub params: String,
}

impl CacheKey {
    /// Build a key from its three components.
    pub fn new(
        machine: impl Into<String>,
        workload: impl Into<String>,
        params: impl Into<String>,
    ) -> Self {
        Self {
            machine: machine.into(),
            workload: workload.into(),
            params: params.into(),
        }
    }
}

/// Hit/miss accounting split by tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierCounters {
    /// Lookups answered by the in-memory table.
    pub mem_hits: u64,
    /// Lookups answered by the persistent store.
    pub disk_hits: u64,
    /// Lookups that had to compute (equivalently, engine misses).
    pub misses: u64,
}

impl TierCounters {
    /// Total lookups.
    pub fn total(&self) -> u64 {
        self.mem_hits + self.disk_hits + self.misses
    }

    /// Hits across both tiers.
    pub fn hits(&self) -> u64 {
        self.mem_hits + self.disk_hits
    }

    /// Component-wise `self - earlier` (for before/after snapshots).
    pub fn since(&self, earlier: &TierCounters) -> TierCounters {
        TierCounters {
            mem_hits: self.mem_hits - earlier.mem_hits,
            disk_hits: self.disk_hits - earlier.disk_hits,
            misses: self.misses - earlier.misses,
        }
    }
}

type Slot = Arc<Mutex<Option<Arc<dyn Any + Send + Sync>>>>;

thread_local! {
    static THREAD_MEM_HITS: Cell<u64> = const { Cell::new(0) };
    static THREAD_DISK_HITS: Cell<u64> = const { Cell::new(0) };
    static THREAD_MISSES: Cell<u64> = const { Cell::new(0) };
}

/// Concurrency-safe memo table for simulation sub-results, optionally
/// backed by a persistent [`Store`] tier.
#[derive(Default)]
pub struct Cache {
    slots: Mutex<HashMap<CacheKey, Slot>>,
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    store: Option<Arc<Store>>,
}

impl Cache {
    /// An empty, memory-only cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache whose [`Self::get_or_persistent`] lookups are backed
    /// by `store`.
    pub fn with_store(store: Arc<Store>) -> Self {
        Self {
            store: Some(store),
            ..Self::default()
        }
    }

    /// The persistent tier, when one is attached.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.store.as_ref()
    }

    fn charge_mem_hit(&self) {
        self.mem_hits.fetch_add(1, Ordering::Relaxed);
        THREAD_MEM_HITS.with(|c| c.set(c.get() + 1));
    }

    fn charge_disk_hit(&self) {
        self.disk_hits.fetch_add(1, Ordering::Relaxed);
        THREAD_DISK_HITS.with(|c| c.set(c.get() + 1));
    }

    fn charge_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        THREAD_MISSES.with(|c| c.set(c.get() + 1));
    }

    fn slot(&self, key: &CacheKey) -> Slot {
        let mut slots = self.slots.lock().expect("cache map lock");
        slots.entry(key.clone()).or_default().clone()
    }

    /// Look `key` up in the memory tier, computing (and storing) the value
    /// on first use. The persistent store is **not** consulted — use
    /// [`Self::get_or_persistent`] for values that should survive the
    /// process.
    ///
    /// Concurrent callers of the same key block until the first computation
    /// finishes; exactly one miss is ever charged per key.
    pub fn get_or<T, F>(&self, key: CacheKey, compute: F) -> T
    where
        T: Clone + Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        let slot = self.slot(&key);
        let mut value = slot.lock().expect("cache slot lock");
        match value.as_ref() {
            Some(stored) => {
                self.charge_mem_hit();
                stored
                    .downcast_ref::<T>()
                    .unwrap_or_else(|| panic!("cache key {key:?} reused with a different type"))
                    .clone()
            }
            None => {
                let computed = compute();
                *value = Some(Arc::new(computed.clone()));
                self.charge_miss();
                computed
            }
        }
    }

    /// Two-tier lookup: memory, then the persistent store, then `compute`
    /// (whose result is written through to both tiers).
    ///
    /// Falls back to [`Self::get_or`] semantics when no store is attached.
    /// The disk probe and the compute run under the per-key slot lock, so
    /// concurrent identical lookups stay single-flight across both tiers.
    /// Store write failures are not fatal: the computed value is still
    /// returned and the process continues memory-only for that key.
    pub fn get_or_persistent<T, F>(&self, key: CacheKey, compute: F) -> T
    where
        T: StoreValue + Clone + Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        let slot = self.slot(&key);
        let mut value = slot.lock().expect("cache slot lock");
        if let Some(stored) = value.as_ref() {
            self.charge_mem_hit();
            return stored
                .downcast_ref::<T>()
                .unwrap_or_else(|| panic!("cache key {key:?} reused with a different type"))
                .clone();
        }
        if let Some(store) = &self.store {
            if let Some(found) = store.get::<T>(&key) {
                self.charge_disk_hit();
                *value = Some(Arc::new(found.clone()));
                return found;
            }
        }
        let computed = compute();
        if let Some(store) = &self.store {
            let _ = store.put(&key, &computed);
        }
        *value = Some(Arc::new(computed.clone()));
        self.charge_miss();
        computed
    }

    /// Total memory-tier hits across all threads.
    pub fn mem_hits(&self) -> u64 {
        self.mem_hits.load(Ordering::Relaxed)
    }

    /// Total persistent-tier hits across all threads.
    pub fn disk_hits(&self) -> u64 {
        self.disk_hits.load(Ordering::Relaxed)
    }

    /// Total misses (equivalently, distinct keys computed).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Snapshot of the process-wide counters.
    pub fn counters(&self) -> TierCounters {
        TierCounters {
            mem_hits: self.mem_hits(),
            disk_hits: self.disk_hits(),
            misses: self.misses(),
        }
    }

    /// Number of stored entries (memory tier).
    pub fn len(&self) -> usize {
        self.slots.lock().expect("cache map lock").len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reset the *current thread's* counters (the per-experiment
    /// attribution the engine uses: one experiment runs entirely on one
    /// worker thread).
    pub fn reset_thread_counters() {
        THREAD_MEM_HITS.with(|c| c.set(0));
        THREAD_DISK_HITS.with(|c| c.set(0));
        THREAD_MISSES.with(|c| c.set(0));
    }

    /// Current thread's counters since the last reset.
    pub fn thread_counters() -> TierCounters {
        TierCounters {
            mem_hits: THREAD_MEM_HITS.with(|c| c.get()),
            disk_hits: THREAD_DISK_HITS.with(|c| c.get()),
            misses: THREAD_MISSES.with(|c| c.get()),
        }
    }
}

impl std::fmt::Debug for Cache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cache")
            .field("entries", &self.len())
            .field("mem_hits", &self.mem_hits())
            .field("disk_hits", &self.disk_hits())
            .field("misses", &self.misses())
            .field("persistent", &self.store.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computes_once_then_hits() {
        let cache = Cache::new();
        let key = CacheKey::new("CTE-Arm", "alya", "nodes=16");
        let mut calls = 0;
        let a: f64 = cache.get_or(key.clone(), || {
            calls += 1;
            42.0
        });
        let b: f64 = cache.get_or(key, || {
            calls += 1;
            panic!("must not recompute")
        });
        assert_eq!(a, b);
        assert_eq!(calls, 1);
        assert_eq!(cache.mem_hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.disk_hits(), 0);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_are_distinct_entries() {
        let cache = Cache::new();
        for n in [1usize, 16, 32] {
            let v: usize = cache.get_or(CacheKey::new("m", "w", format!("nodes={n}")), || n * 2);
            assert_eq!(v, n * 2);
        }
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.mem_hits(), 0);
    }

    #[test]
    fn concurrent_racers_compute_once() {
        let cache = Arc::new(Cache::new());
        let computed = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let computed = Arc::clone(&computed);
                s.spawn(move || {
                    let v: u64 = cache.get_or(CacheKey::new("m", "w", "p"), || {
                        computed.fetch_add(1, Ordering::SeqCst);
                        7
                    });
                    assert_eq!(v, 7);
                });
            }
        });
        assert_eq!(computed.load(Ordering::SeqCst), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.mem_hits(), 7);
    }

    #[test]
    fn thread_counters_attribute_to_the_calling_thread() {
        let cache = Cache::new();
        Cache::reset_thread_counters();
        let _: u8 = cache.get_or(CacheKey::new("m", "w", "1"), || 1);
        let _: u8 = cache.get_or(CacheKey::new("m", "w", "1"), || 1);
        let c = Cache::thread_counters();
        assert_eq!((c.mem_hits, c.disk_hits, c.misses), (1, 0, 1));
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_confusion_panics() {
        let cache = Cache::new();
        let _: u64 = cache.get_or(CacheKey::new("m", "w", "p"), || 1u64);
        let _: f64 = cache.get_or(CacheKey::new("m", "w", "p"), || 1.0f64);
    }

    fn temp_store(tag: &str) -> (Arc<Store>, std::path::PathBuf) {
        use std::sync::atomic::AtomicU64;
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "simkit-cache-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        (Arc::new(Store::open(&dir, 1).expect("store")), dir)
    }

    #[test]
    fn persistent_lookup_walks_the_tiers() {
        let (store, dir) = temp_store("tiers");
        let key = CacheKey::new("m", "w", "p");

        // Cold process: miss, written through to disk.
        let warm = Cache::with_store(Arc::clone(&store));
        let v: f64 = warm.get_or_persistent(key.clone(), || 4.25);
        assert_eq!(v, 4.25);
        assert_eq!(
            (warm.mem_hits(), warm.disk_hits(), warm.misses()),
            (0, 0, 1)
        );

        // Same process again: memory tier.
        let v: f64 = warm.get_or_persistent(key.clone(), || panic!("mem hit expected"));
        assert_eq!(v, 4.25);
        assert_eq!((warm.mem_hits(), warm.disk_hits()), (1, 0));

        // "New process" (fresh cache, same store): disk tier.
        let fresh = Cache::with_store(Arc::clone(&store));
        let v: f64 = fresh.get_or_persistent(key.clone(), || panic!("disk hit expected"));
        assert_eq!(v, 4.25);
        assert_eq!(
            (fresh.mem_hits(), fresh.disk_hits(), fresh.misses()),
            (0, 1, 0)
        );
        // And the disk hit primed the memory tier.
        let _: f64 = fresh.get_or_persistent(key, || panic!("mem hit expected"));
        assert_eq!(fresh.mem_hits(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistent_without_store_degrades_to_memory() {
        let cache = Cache::new();
        let key = CacheKey::new("m", "w", "p");
        let a: f64 = cache.get_or_persistent(key.clone(), || 1.0);
        let b: f64 = cache.get_or_persistent(key, || panic!("cached"));
        assert_eq!(a, b);
        assert_eq!(
            (cache.mem_hits(), cache.disk_hits(), cache.misses()),
            (1, 0, 1)
        );
    }

    #[test]
    fn concurrent_identical_persistent_lookups_are_single_flight() {
        let (store, dir) = temp_store("single-flight");
        let cache = Arc::new(Cache::with_store(store));
        let computed = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                let computed = Arc::clone(&computed);
                s.spawn(move || {
                    let v: f64 = cache.get_or_persistent(CacheKey::new("m", "w", "p"), || {
                        computed.fetch_add(1, Ordering::SeqCst);
                        9.0
                    });
                    assert_eq!(v, 9.0);
                });
            }
        });
        assert_eq!(computed.load(Ordering::SeqCst), 1, "one engine miss");
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.mem_hits(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
