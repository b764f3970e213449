//! Shared sampled worlds for the parallel harness.
//!
//! Every repetition of every cell runs in a world that is a pure function
//! of `(domain, rep)` — the population seed deliberately ignores the
//! strategy and the budgets so that all strategies of a repetition face
//! statistically identical objects (the §5.1 record-and-reuse
//! discipline). That makes worlds perfect candidates for sharing: a
//! Figure 1 sweep re-samples the same pictures population hundreds of
//! times in the serial path. [`WorldCache`] builds each
//! `(domain, rep)` population exactly once and hands out `Arc`s.
//!
//! Concurrency: the map is behind a brief `RwLock` that only guards slot
//! lookup/insertion; the (expensive) sampling itself runs inside a
//! per-slot `OnceLock::get_or_init`, so two workers asking for the same
//! still-unbuilt world block on each other but never on builders of
//! *different* worlds.

use crate::runner::{sample_population, DomainKind};
use disq_core::DisqError;
use disq_domain::{DomainSpec, Population};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

type WorldSlot = Arc<OnceLock<Result<Arc<Population>, DisqError>>>;

/// Cache of domain specs and sampled populations, keyed by
/// `(domain, rep)`.
#[derive(Debug, Default)]
pub struct WorldCache {
    specs: RwLock<HashMap<DomainKind, Arc<DomainSpec>>>,
    worlds: RwLock<HashMap<(DomainKind, u64), WorldSlot>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl WorldCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The (memoized) spec of a domain. Spec construction is
    /// deterministic, so every caller sees the same calibration tables.
    pub fn spec(&self, domain: DomainKind) -> Arc<DomainSpec> {
        if let Some(spec) = self.specs.read().unwrap().get(&domain) {
            return Arc::clone(spec);
        }
        let mut specs = self.specs.write().unwrap();
        Arc::clone(
            specs
                .entry(domain)
                .or_insert_with(|| Arc::new(domain.spec())),
        )
    }

    /// The shared population of `(domain, rep)`:
    /// [`POPULATION`](crate::runner::POPULATION) objects sampled with
    /// [`world_seed`](crate::runner::world_seed)`(rep)` — byte-for-byte the world the
    /// serial `run_cell` path builds for itself.
    ///
    /// The first caller per key builds (a miss); everyone else gets the
    /// same `Arc` (a hit), possibly after blocking on the in-flight
    /// build.
    pub fn population(&self, domain: DomainKind, rep: u64) -> Result<Arc<Population>, DisqError> {
        let key = (domain, rep);
        // Bind the fast-path lookup to its own statement so the read
        // guard is dropped before the write lock is taken (an `if let`
        // on the guard temporary would hold it through the else branch
        // and self-deadlock).
        let existing = self.worlds.read().unwrap().get(&key).map(Arc::clone);
        let (slot, fresh) = match existing {
            Some(slot) => (slot, false),
            None => {
                let mut worlds = self.worlds.write().unwrap();
                match worlds.entry(key) {
                    std::collections::hash_map::Entry::Occupied(e) => (Arc::clone(e.get()), false),
                    std::collections::hash_map::Entry::Vacant(e) => {
                        (Arc::clone(e.insert(Arc::new(OnceLock::new()))), true)
                    }
                }
            }
        };
        if fresh {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        slot.get_or_init(|| {
            let spec = self.spec(domain);
            sample_population(&spec, rep).map(Arc::new)
        })
        .clone()
    }

    /// Lookups that found an existing world slot.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to create (and build) the world.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Fraction of lookups served from cache; 0 when nothing was asked.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }

    /// Number of distinct worlds held.
    pub fn len(&self) -> usize {
        self.worlds.read().unwrap().len()
    }

    /// True when no world has been built.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached world and spec, keeping the counters.
    pub fn clear(&self) {
        self.worlds.write().unwrap().clear();
        self.specs.write().unwrap().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{world_seed, POPULATION};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn same_key_shares_the_same_arc() {
        let cache = WorldCache::new();
        let a = cache.population(DomainKind::Pictures, 0).unwrap();
        let b = cache.population(DomainKind::Pictures, 0).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn different_reps_are_different_worlds() {
        let cache = WorldCache::new();
        let a = cache.population(DomainKind::Pictures, 0).unwrap();
        let b = cache.population(DomainKind::Pictures, 1).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 0);
        // Different seeds really sample different objects.
        let attr = a.spec().attribute_ids().next().unwrap();
        assert_ne!(a.column(attr), b.column(attr));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cached_world_matches_serial_sampling_exactly() {
        let cache = WorldCache::new();
        let cached = cache.population(DomainKind::Recipes, 3).unwrap();
        // The serial path: fresh spec, fresh rng, same seed.
        let spec = Arc::new(DomainKind::Recipes.spec());
        let mut rng = StdRng::seed_from_u64(world_seed(3));
        let fresh = Population::sample(Arc::clone(&spec), POPULATION, &mut rng).unwrap();
        assert_eq!(cached.n_objects(), fresh.n_objects());
        for a in spec.attribute_ids() {
            assert_eq!(cached.column(a), fresh.column(a), "attribute {a:?}");
        }
    }

    #[test]
    fn concurrent_same_key_builds_once() {
        let cache = WorldCache::new();
        let arcs: Vec<Arc<Population>> =
            crate::pool::run_indexed(8, 4, |_| cache.population(DomainKind::Pictures, 7).unwrap());
        for w in &arcs[1..] {
            assert!(Arc::ptr_eq(&arcs[0], w));
        }
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 7);
    }

    #[test]
    fn specs_memoized() {
        let cache = WorldCache::new();
        let a = cache.spec(DomainKind::Laptops);
        let b = cache.spec(DomainKind::Laptops);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn clear_resets_contents() {
        let cache = WorldCache::new();
        cache.population(DomainKind::Pictures, 0).unwrap();
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        // Counters survive (they describe lifetime traffic).
        assert_eq!(cache.misses(), 1);
    }
}
