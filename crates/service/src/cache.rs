//! The schedule store: a sharded LRU cache of solved schedules that also
//! tracks the solves still running.
//!
//! Solving is dominated by the LP pipeline (`SUU-C` / the forest block
//! algorithm); serving traffic repeats instances constantly (the bursty
//! multi-tenant workload in `suu-workloads` is built from exactly such
//! repetitions), so the service fronts every solve with this store.
//!
//! Keys are the [`canonical_digest`](SuuInstance::canonical_digest) of the
//! instance plus the solver name plus the request's engine **variant** (see
//! [`SolveOptions::engine_variant`](crate::protocol::SolveOptions::engine_variant):
//! a forced LP engine can reach a different optimal vertex, so it solves and
//! caches separately, while budgets, cache policy and response projection
//! deliberately share the variant — they never change the computed
//! artifact). The full instance is stored alongside each entry and compared
//! on lookup, so a digest collision can never serve — or wait on — a
//! schedule for the wrong instance. Shards are independent mutexes selected
//! by digest, so concurrent workers rarely contend on the same lock.
//!
//! An entry is **ready** (a cached solve) or **pending** (a solve running
//! now). One [`lookup`](ScheduleCache::lookup) under the shard's mutex
//! answers hit (ready), follow (pending: wait for that solve) or lead (no
//! entry: file a pending one and solve), so identical concurrent requests
//! cost one solver invocation. [`Leader::publish`] makes the entry ready, or
//! removes it on a failure (followers see failures; the store never keeps
//! them), then wakes the followers; a leader dropped unpublished (a
//! panicking solve) does the same with a `solver_error`. Pending entries
//! stay out of LRU order, [`len`](ScheduleCache::len),
//! [`lookup_base`](ScheduleCache::lookup_base) and the shard entry counts;
//! [`in_flight`](ScheduleCache::in_flight) counts them.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::Instant;

use serde::Serialize;
use suu_core::{ObliviousSchedule, SuuInstance};
use suu_lp::{LuFactors, WarmStart};

use crate::protocol::{error_kind, BudgetReport, SolveFailure};

/// Cache sizing.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Number of independent shards (rounded up to at least 1).
    pub num_shards: usize,
    /// Maximum number of entries per shard; the least recently used entry is
    /// evicted on overflow.
    pub capacity_per_shard: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            num_shards: 8,
            capacity_per_shard: 128,
        }
    }
}

/// A cached solve result.
#[derive(Debug, Clone)]
pub struct CachedSolve {
    /// Name of the solver that produced the schedule.
    pub solver: String,
    /// The schedule itself.
    pub schedule: ObliviousSchedule,
    /// LP optimum, when the solver reports one.
    pub lp_value: Option<f64>,
    /// Simplex pivots of the original solve, when the solver reports them.
    /// Served unchanged on cache hits — they describe how the schedule was
    /// computed, not the current request.
    pub lp_pivots: Option<usize>,
    /// LP wall-clock microseconds of the original solve, when reported.
    pub lp_micros: Option<u64>,
    /// Whether the original solve started from a donor basis (a warm
    /// start). Like `lp_pivots`, this describes how the cached schedule was
    /// computed and is served unchanged on cache hits; it reaches the wire
    /// only inside the opt-in `trace` object.
    pub lp_warm: bool,
    /// Lazily rendered JSON body (see [`rendered_body`](Self::rendered_body)),
    /// shared across every clone served from the cache.
    rendered: Arc<OnceLock<String>>,
    /// Lazily rendered `detail: no_schedule` projection of the body (see
    /// [`rendered_body_no_schedule`](Self::rendered_body_no_schedule)).
    rendered_no_schedule: Arc<OnceLock<String>>,
}

impl CachedSolve {
    /// Wraps a solve result (the rendered body starts empty and is built on
    /// first use).
    #[must_use]
    pub fn new(
        solver: String,
        schedule: ObliviousSchedule,
        lp_value: Option<f64>,
        lp_pivots: Option<usize>,
        lp_micros: Option<u64>,
        lp_warm: bool,
    ) -> Self {
        Self {
            solver,
            schedule,
            lp_value,
            lp_pivots,
            lp_micros,
            lp_warm,
            rendered: Arc::new(OnceLock::new()),
            rendered_no_schedule: Arc::new(OnceLock::new()),
        }
    }

    /// Renders the solve-dependent response fragment with `schedule` forced
    /// to the given value; shared by both rendered-body projections.
    fn render_fields(&self, schedule: serde::Value) -> String {
        let fields = serde::Value::Object(vec![
            (String::from("solver"), self.solver.to_value()),
            (String::from("schedule"), schedule),
            (String::from("schedule_len"), self.schedule.len().to_value()),
            (String::from("lp_value"), self.lp_value.to_value()),
            (String::from("lp_pivots"), self.lp_pivots.to_value()),
            (String::from("lp_micros"), self.lp_micros.to_value()),
        ]);
        let rendered = fields.render();
        // Strip the outer braces: the caller owns the envelope.
        rendered[1..rendered.len() - 1].to_string()
    }

    /// The solve-dependent fragment of a success response, rendered once and
    /// shared by every response serving this solve:
    /// `"solver":…,"schedule":…,"schedule_len":…,"lp_value":…,"lp_pivots":…,"lp_micros":…`
    /// (no surrounding braces). Serialising the schedule dominates the cost
    /// of answering a cache hit — a multi-kilobyte JSON tree per response —
    /// so the pipelined executor splices this fragment into the response
    /// envelope instead of re-rendering it for every request.
    ///
    /// Rendered through the same serde path as the struct serialiser, so a
    /// spliced response parses identically to a fully serialised one.
    #[must_use]
    pub fn rendered_body(&self) -> &str {
        self.rendered
            .get_or_init(|| self.render_fields(self.schedule.to_value()))
    }

    /// The `detail: no_schedule` projection of
    /// [`rendered_body`](Self::rendered_body): identical except `schedule`
    /// is `null`. Rendered once per solve like the full body, so trimmed
    /// responses keep the splice-don't-serialise fast path.
    #[must_use]
    pub fn rendered_body_no_schedule(&self) -> &str {
        self.rendered_no_schedule
            .get_or_init(|| self.render_fields(serde::Value::Null))
    }
}

struct Entry {
    instance: SuuInstance,
    solver: String,
    /// Engine variant of the request that computed this entry (see
    /// [`SolveOptions::engine_variant`](crate::protocol::SolveOptions::engine_variant)).
    variant: u8,
    slot: Slot,
    last_used: u64,
}

/// The store key of one lookup, borrowed from the request.
#[derive(Clone, Copy)]
struct Key<'a> {
    digest: u64,
    instance: &'a SuuInstance,
    solver: &'a str,
    variant: u8,
}

impl Entry {
    fn new(key: Key<'_>, slot: Slot, last_used: u64) -> Self {
        Self {
            instance: key.instance.clone(),
            solver: key.solver.to_string(),
            variant: key.variant,
            slot,
            last_used,
        }
    }

    fn matches(&self, key: Key<'_>) -> bool {
        self.solver == key.solver && self.variant == key.variant && self.instance == *key.instance
    }

    fn is_ready(&self) -> bool {
        matches!(self.slot, Slot::Ready(_))
    }
}

enum Slot {
    /// A finished solve, served to every later request.
    Ready(CachedSolve),
    /// A solve in progress; followers wait on it.
    Pending(Arc<Pending>),
}

/// The rendezvous of one pending solve: the leader sets `result` under the
/// shard lock, followers wait on `published` with that same lock.
#[derive(Default)]
struct Pending {
    result: OnceLock<Result<CachedSolve, SolveFailure>>,
    published: Condvar,
}

#[derive(Default)]
struct Shard {
    /// Digest → entries with that digest (usually exactly one).
    entries: HashMap<u64, Vec<Entry>>,
    /// Ready entries.
    len: usize,
    /// Pending entries.
    pending: usize,
    tick: u64,
    /// Lookup hits on this shard. Counted under the shard lock the lookup
    /// already holds, so per-shard accounting costs no extra synchronisation.
    hits: u64,
    /// Lookup misses on this shard (leaders and followers alike).
    misses: u64,
    /// LRU evictions performed by this shard.
    evictions: u64,
}

impl Shard {
    /// Makes `value` the ready entry for `key` (refreshing a ready entry or
    /// settling a pending one) and evicts the least recently used ready
    /// entry if that overflows `capacity`.
    fn store(&mut self, key: Key<'_>, value: CachedSolve, capacity: usize) {
        self.tick += 1;
        let tick = self.tick;
        let bucket = self.entries.entry(key.digest).or_default();
        match bucket.iter_mut().find(|e| e.matches(key)) {
            Some(entry) => {
                if !entry.is_ready() {
                    self.pending -= 1;
                    self.len += 1;
                }
                entry.slot = Slot::Ready(value);
                entry.last_used = tick;
            }
            None => {
                bucket.push(Entry::new(key, Slot::Ready(value), tick));
                self.len += 1;
            }
        }
        if self.len > capacity {
            let lru = self
                .entries
                .iter()
                .flat_map(|(&d, bucket)| {
                    let ready = bucket.iter().enumerate().filter(|(_, e)| e.is_ready());
                    ready.map(move |(i, e)| (e.last_used, d, i))
                })
                .min();
            if let Some((_, digest, index)) = lru {
                self.remove(digest, index);
                self.len -= 1;
                self.evictions += 1;
            }
        }
    }

    fn remove(&mut self, digest: u64, index: usize) {
        let bucket = self.entries.get_mut(&digest).expect("entry just found");
        bucket.remove(index);
        if bucket.is_empty() {
            self.entries.remove(&digest);
        }
    }
}

/// Point-in-time counters of one cache shard (see
/// [`ScheduleCache::shard_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Entries currently cached in the shard.
    pub entries: u64,
    /// Lookup hits since creation.
    pub hits: u64,
    /// Lookup misses since creation.
    pub misses: u64,
    /// LRU evictions since creation.
    pub evictions: u64,
}

/// One shard of the warm-basis index: `(structural digest, solver name)` →
/// the final simplex basis (and its LU factors) of the most recent solve in
/// that structural class, with tick-based LRU recency. The factors live in
/// an `Arc`: lookups hand out a shared reference and the solver deep-copies
/// only when it actually adopts them.
#[derive(Default)]
struct BasisShard {
    entries: HashMap<(u64, String), (BasisDonor, u64)>,
    tick: u64,
}

/// A stored warm-start donor: the basis column set plus the Forrest–Tomlin
/// LU factors that invert it.
#[derive(Clone, Default)]
struct BasisDonor {
    basis: Vec<usize>,
    factors: Option<Arc<LuFactors>>,
}

/// The sharded LRU schedule cache.
pub struct ScheduleCache {
    shards: Vec<Mutex<Shard>>,
    /// Warm-basis index, sharded like the main cache but keyed by
    /// **structural** digest: instances that differ only in probability
    /// values share a key, which is exactly when a parent's basis is a
    /// legal warm start for the child's LP.
    basis_shards: Vec<Mutex<BasisShard>>,
    capacity_per_shard: usize,
}

impl ScheduleCache {
    /// Creates a cache with the given sharding.
    #[must_use]
    pub fn new(config: &CacheConfig) -> Self {
        let num_shards = config.num_shards.max(1);
        Self {
            shards: (0..num_shards)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            basis_shards: (0..num_shards)
                .map(|_| Mutex::new(BasisShard::default()))
                .collect(),
            capacity_per_shard: config.capacity_per_shard.max(1),
        }
    }

    fn shard_for(&self, digest: u64) -> &Mutex<Shard> {
        &self.shards[(digest % self.shards.len() as u64) as usize]
    }

    fn basis_shard_for(&self, digest: u64) -> &Mutex<BasisShard> {
        &self.basis_shards[(digest % self.basis_shards.len() as u64) as usize]
    }

    /// Looks up a cached base instance by canonical digest — the resolution
    /// step of a `base_digest` delta request. Digest collisions are
    /// impossible to exclude, so the caller gets the full stored instance
    /// (the digest check is exact equality on the digest, and every entry
    /// stores the instance it was computed from). Refreshes the entry's
    /// recency: a tenant actively sending deltas keeps its base alive.
    #[must_use]
    pub fn lookup_base(&self, digest: u64) -> Option<SuuInstance> {
        let mut shard = self.shard_for(digest).lock().expect("cache shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        let entry = shard
            .entries
            .get_mut(&digest)?
            .iter_mut()
            .find(|e| e.is_ready())?;
        entry.last_used = tick;
        Some(entry.instance.clone())
    }

    /// Stores the final simplex basis of a solve (and, when captured, its LU
    /// factors), keyed by the instance's structural digest and the solver
    /// that produced it. Overwrites any previous basis in the same
    /// structural class — the most recent solve is the best donor for the
    /// next one.
    pub fn store_basis(
        &self,
        structural_digest: u64,
        solver: &str,
        basis: Vec<usize>,
        factors: Option<LuFactors>,
    ) {
        let donor = BasisDonor {
            basis,
            factors: factors.map(Arc::new),
        };
        let mut shard = self
            .basis_shard_for(structural_digest)
            .lock()
            .expect("basis shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        shard
            .entries
            .insert((structural_digest, solver.to_string()), (donor, tick));
        if shard.entries.len() > self.capacity_per_shard {
            if let Some(lru) = shard
                .entries
                .iter()
                .min_by_key(|(_, &(_, used))| used)
                .map(|(k, _)| k.clone())
            {
                shard.entries.remove(&lru);
            }
        }
    }

    /// Looks up a donor for the given structural class, refreshing its
    /// recency on a hit. Returns a ready-to-install [`WarmStart`]; the LU
    /// factors are deep-copied out of the shared entry (a memcpy of the
    /// factor arrays — far cheaper than the refactorisation they replace).
    #[must_use]
    pub fn lookup_basis(&self, structural_digest: u64, solver: &str) -> Option<WarmStart> {
        let donor = {
            let mut shard = self
                .basis_shard_for(structural_digest)
                .lock()
                .expect("basis shard poisoned");
            shard.tick += 1;
            let tick = shard.tick;
            let entry = shard
                .entries
                .get_mut(&(structural_digest, solver.to_string()))?;
            entry.1 = tick;
            entry.0.clone()
        };
        // The deep copy happens outside the shard lock.
        Some(WarmStart {
            basis: donor.basis,
            factors: donor.factors.map(|f| (*f).clone()),
        })
    }

    /// Looks up `instance` solved by `solver` under the given engine
    /// `variant`: a ready entry is a [`Lookup::Hit`] (refreshing its
    /// recency), a pending one makes the caller a [`Lookup::Follow`]er, and
    /// otherwise the caller files a pending entry and becomes the
    /// [`Lookup::Lead`]er. Hits count as shard hits; leaders and followers
    /// both count as misses.
    #[must_use]
    pub fn lookup<'a>(
        &'a self,
        instance: &'a SuuInstance,
        solver: &'a str,
        variant: u8,
    ) -> Lookup<'a> {
        self.lookup_digest(instance.canonical_digest(), instance, solver, variant)
    }

    /// [`lookup`](Self::lookup) under a caller-supplied digest, so tests can
    /// file distinct instances under one digest.
    fn lookup_digest<'a>(
        &'a self,
        digest: u64,
        instance: &'a SuuInstance,
        solver: &'a str,
        variant: u8,
    ) -> Lookup<'a> {
        let key = Key {
            digest,
            instance,
            solver,
            variant,
        };
        let mut guard = self.shard_for(digest).lock().expect("cache shard poisoned");
        let shard = &mut *guard;
        shard.tick += 1;
        let bucket = shard.entries.entry(digest).or_default();
        match bucket.iter_mut().find(|e| e.matches(key)) {
            Some(Entry {
                slot: Slot::Ready(value),
                last_used,
                ..
            }) => {
                *last_used = shard.tick;
                shard.hits += 1;
                Lookup::Hit(value.clone())
            }
            Some(Entry {
                slot: Slot::Pending(pending),
                ..
            }) => {
                shard.misses += 1;
                Lookup::Follow(Follower {
                    shard: self.shard_for(digest),
                    pending: Arc::clone(pending),
                })
            }
            None => {
                let pending = Arc::new(Pending::default());
                bucket.push(Entry::new(
                    key,
                    Slot::Pending(Arc::clone(&pending)),
                    shard.tick,
                ));
                shard.pending += 1;
                shard.misses += 1;
                Lookup::Lead(Leader {
                    cache: self,
                    key,
                    pending: Some(pending),
                })
            }
        }
    }

    /// Inserts (or refreshes) the solve result for `instance` under the
    /// given engine `variant`, evicting the least recently used entry of the
    /// shard if it is full. A `Refresh` request's solve lands here; a
    /// pending entry for the same key becomes ready (its followers still
    /// wait for their own leader).
    pub fn insert(&self, instance: &SuuInstance, variant: u8, value: CachedSolve) {
        let digest = instance.canonical_digest();
        let solver = value.solver.clone();
        let key = Key {
            digest,
            instance,
            solver: &solver,
            variant,
        };
        let mut shard = self.shard_for(digest).lock().expect("cache shard poisoned");
        shard.store(key, value, self.capacity_per_shard);
    }

    /// Number of solves currently pending across all shards (the `stats`
    /// verb's `flight_in_flight`).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").pending)
            .sum()
    }

    /// Total number of cached entries across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len)
            .sum()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of lookup hits since creation, across all shards.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.shard_stats().iter().map(|s| s.hits).sum()
    }

    /// Number of lookup misses since creation, across all shards.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.shard_stats().iter().map(|s| s.misses).sum()
    }

    /// Number of LRU evictions since creation, across all shards.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.shard_stats().iter().map(|s| s.evictions).sum()
    }

    /// Per-shard occupancy and hit/miss/eviction counters, in shard order.
    /// Each shard is read under its own lock, so the vector is per-shard
    /// consistent (not a global atomic snapshot).
    #[must_use]
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| {
                let shard = s.lock().expect("cache shard poisoned");
                ShardStats {
                    entries: shard.len as u64,
                    hits: shard.hits,
                    misses: shard.misses,
                    evictions: shard.evictions,
                }
            })
            .collect()
    }
}

/// Outcome of [`ScheduleCache::lookup`].
pub enum Lookup<'a> {
    /// The solve is cached.
    Hit(CachedSolve),
    /// Nobody is solving this key: the caller must solve and then
    /// [`publish`](Leader::publish) the outcome.
    Lead(Leader<'a>),
    /// An identical solve is running; [`wait`](Follower::wait) for it.
    Follow(Follower<'a>),
}

/// Leadership of one pending solve. Publish the outcome with
/// [`publish`](Self::publish); dropping without publishing (a panicking
/// leader) removes the pending entry and hands followers a `solver_error`.
pub struct Leader<'a> {
    cache: &'a ScheduleCache,
    key: Key<'a>,
    /// Taken by the first resolution, so the drop fallback runs only when
    /// the leader never published.
    pending: Option<Arc<Pending>>,
}

impl Leader<'_> {
    /// Caches a success (a failure removes the pending entry instead) and
    /// wakes every follower with the outcome.
    pub fn publish(mut self, result: Result<CachedSolve, SolveFailure>) {
        self.resolve(result);
    }

    fn resolve(&mut self, result: Result<CachedSolve, SolveFailure>) {
        let Some(pending) = self.pending.take() else {
            return;
        };
        let digest = self.key.digest;
        // This also runs in `Drop`, which must not panic: take a poisoned
        // shard as is (every shard update completes before it can unwind).
        let mut shard = self
            .cache
            .shard_for(digest)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match &result {
            Ok(value) => shard.store(self.key, value.clone(), self.cache.capacity_per_shard),
            Err(_) => {
                // Still pending unless a `Refresh` insert settled it meanwhile.
                let ours =
                    |e: &Entry| matches!(&e.slot, Slot::Pending(p) if Arc::ptr_eq(p, &pending));
                let found = shard
                    .entries
                    .get(&digest)
                    .and_then(|b| b.iter().position(ours));
                if let Some(index) = found {
                    shard.remove(digest, index);
                    shard.pending -= 1;
                }
            }
        }
        // Set under the shard lock, so a follower checking before it parks
        // cannot miss the wake-up.
        let _ = pending.result.set(result);
        drop(shard);
        pending.published.notify_all();
    }
}

impl Drop for Leader<'_> {
    fn drop(&mut self) {
        // A no-op after `publish`; otherwise the leader unwound mid-solve.
        self.resolve(Err(SolveFailure::new(
            error_kind::SOLVER_ERROR,
            "coalesced solve aborted: leader panicked",
        )));
    }
}

/// A follower's handle on a solve led by another request.
pub struct Follower<'a> {
    shard: &'a Mutex<Shard>,
    pending: Arc<Pending>,
}

impl Follower<'_> {
    /// Blocks until the leader publishes, or until `deadline` passes when
    /// one is given.
    ///
    /// # Errors
    ///
    /// The leader's structured failure, or a `budget_exhausted` failure
    /// (`exhausted: "time"`) when the deadline passed while waiting — the
    /// leader's solve keeps running and will still land in the cache.
    pub fn wait(&self, deadline: Option<Instant>) -> Result<CachedSolve, SolveFailure> {
        let published = &self.pending.published;
        let mut shard = self.shard.lock().expect("cache shard poisoned");
        while self.pending.result.get().is_none() {
            let Some(deadline) = deadline else {
                shard = published.wait(shard).expect("cache shard poisoned");
                continue;
            };
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(SolveFailure {
                    kind: error_kind::BUDGET_EXHAUSTED,
                    message: "time budget exhausted while waiting on a coalesced solve".into(),
                    budget: Some(BudgetReport::new(0, true)),
                });
            }
            shard = published
                .wait_timeout(shard, left)
                .expect("cache shard poisoned")
                .0;
        }
        drop(shard);
        self.pending.result.get().cloned().expect("published")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suu_core::InstanceBuilder;
    use suu_workloads::uniform_matrix;

    fn instance(seed: u64) -> SuuInstance {
        InstanceBuilder::new(3, 2)
            .probability_matrix(uniform_matrix(3, 2, 0.2, 0.9, seed))
            .build()
            .unwrap()
    }

    /// A plain cache read: the hit, or `None` (a lead is dropped at once,
    /// which removes its pending entry).
    fn get(
        cache: &ScheduleCache,
        inst: &SuuInstance,
        solver: &str,
        variant: u8,
    ) -> Option<CachedSolve> {
        match cache.lookup(inst, solver, variant) {
            Lookup::Hit(hit) => Some(hit),
            Lookup::Lead(_) | Lookup::Follow(_) => None,
        }
    }

    fn solve_for(inst: &SuuInstance, solver: &str) -> CachedSolve {
        CachedSolve::new(
            solver.to_string(),
            ObliviousSchedule::new(inst.num_machines()),
            None,
            None,
            None,
            false,
        )
    }

    #[test]
    fn get_miss_then_hit() {
        let cache = ScheduleCache::new(&CacheConfig::default());
        let inst = instance(1);
        assert!(get(&cache, &inst, "suu-c", 0).is_none());
        cache.insert(&inst, 0, solve_for(&inst, "suu-c"));
        let hit = get(&cache, &inst, "suu-c", 0).unwrap();
        assert_eq!(hit.solver, "suu-c");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn solver_name_is_part_of_the_key() {
        let cache = ScheduleCache::new(&CacheConfig::default());
        let inst = instance(2);
        cache.insert(&inst, 0, solve_for(&inst, "suu-c"));
        assert!(get(&cache, &inst, "suu-i-obl", 0).is_none());
        assert!(get(&cache, &inst, "suu-c", 0).is_some());
    }

    #[test]
    fn different_instances_do_not_collide() {
        let cache = ScheduleCache::new(&CacheConfig::default());
        let a = instance(3);
        let b = instance(4);
        cache.insert(&a, 0, solve_for(&a, "s"));
        assert!(get(&cache, &b, "s", 0).is_none());
    }

    #[test]
    fn insert_refreshes_existing_entry_without_growing() {
        let cache = ScheduleCache::new(&CacheConfig::default());
        let inst = instance(5);
        cache.insert(&inst, 0, solve_for(&inst, "s"));
        cache.insert(&inst, 0, solve_for(&inst, "s"));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_eviction_keeps_recently_used_entries() {
        // One shard of capacity 2 so eviction order is fully deterministic.
        let cache = ScheduleCache::new(&CacheConfig {
            num_shards: 1,
            capacity_per_shard: 2,
        });
        let a = instance(10);
        let b = instance(11);
        let c = instance(12);
        cache.insert(&a, 0, solve_for(&a, "s"));
        cache.insert(&b, 0, solve_for(&b, "s"));
        // Touch `a` so `b` becomes the LRU entry.
        assert!(get(&cache, &a, "s", 0).is_some());
        cache.insert(&c, 0, solve_for(&c, "s"));
        assert_eq!(cache.len(), 2);
        assert!(get(&cache, &a, "s", 0).is_some());
        assert!(get(&cache, &b, "s", 0).is_none());
        assert!(get(&cache, &c, "s", 0).is_some());
    }

    #[test]
    fn shard_stats_track_occupancy_hits_misses_and_evictions() {
        let cache = ScheduleCache::new(&CacheConfig {
            num_shards: 1,
            capacity_per_shard: 2,
        });
        let a = instance(20);
        let b = instance(21);
        let c = instance(22);
        assert!(get(&cache, &a, "s", 0).is_none());
        cache.insert(&a, 0, solve_for(&a, "s"));
        cache.insert(&b, 0, solve_for(&b, "s"));
        assert!(get(&cache, &a, "s", 0).is_some());
        cache.insert(&c, 0, solve_for(&c, "s"));

        let stats = cache.shard_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(
            stats[0],
            ShardStats {
                entries: 2,
                hits: 1,
                misses: 1,
                evictions: 1,
            }
        );
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        let total_entries: u64 = stats.iter().map(|s| s.entries).sum();
        assert_eq!(total_entries, cache.len() as u64);
    }

    #[test]
    fn lookup_base_resolves_cached_digests_and_refreshes_recency() {
        let cache = ScheduleCache::new(&CacheConfig {
            num_shards: 1,
            capacity_per_shard: 2,
        });
        let a = instance(30);
        let b = instance(31);
        let c = instance(32);
        assert!(cache.lookup_base(a.canonical_digest()).is_none());
        cache.insert(&a, 0, solve_for(&a, "s"));
        cache.insert(&b, 0, solve_for(&b, "s"));
        assert_eq!(cache.lookup_base(a.canonical_digest()), Some(a.clone()));
        // The base lookup refreshed `a`, so inserting `c` evicts `b`.
        cache.insert(&c, 0, solve_for(&c, "s"));
        assert!(cache.lookup_base(a.canonical_digest()).is_some());
        assert!(cache.lookup_base(b.canonical_digest()).is_none());
    }

    #[test]
    fn basis_index_stores_by_structural_class_and_solver() {
        let cache = ScheduleCache::new(&CacheConfig::default());
        let inst = instance(40);
        let structural = inst.structural_digest();
        assert!(cache.lookup_basis(structural, "suu-c").is_none());
        cache.store_basis(structural, "suu-c", vec![0, 2, 4], None);
        let donor = cache.lookup_basis(structural, "suu-c").unwrap();
        assert_eq!(donor.basis, vec![0, 2, 4]);
        assert!(donor.factors.is_none());
        assert!(cache.lookup_basis(structural, "suu-forest").is_none());
        // Overwrite: the most recent solve wins.
        cache.store_basis(structural, "suu-c", vec![1, 3, 5], None);
        assert_eq!(
            cache.lookup_basis(structural, "suu-c").unwrap().basis,
            vec![1, 3, 5]
        );
    }

    #[test]
    fn basis_index_is_bounded() {
        let cache = ScheduleCache::new(&CacheConfig {
            num_shards: 1,
            capacity_per_shard: 2,
        });
        cache.store_basis(1, "s", vec![1], None);
        cache.store_basis(2, "s", vec![2], None);
        assert!(cache.lookup_basis(1, "s").is_some()); // refresh: 2 is LRU
        cache.store_basis(3, "s", vec![3], None);
        assert!(cache.lookup_basis(1, "s").is_some());
        assert!(cache.lookup_basis(2, "s").is_none(), "LRU basis evicted");
        assert!(cache.lookup_basis(3, "s").is_some());
    }

    fn lead<'a>(cache: &'a ScheduleCache, inst: &'a SuuInstance) -> Leader<'a> {
        match cache.lookup(inst, "s", 0) {
            Lookup::Lead(leader) => leader,
            _ => panic!("first caller must lead"),
        }
    }

    fn follow<'a>(cache: &'a ScheduleCache, inst: &'a SuuInstance) -> Follower<'a> {
        match cache.lookup(inst, "s", 0) {
            Lookup::Follow(follower) => follower,
            _ => panic!("caller must follow the pending solve"),
        }
    }

    #[test]
    fn probe_hit_short_circuits() {
        let cache = ScheduleCache::new(&CacheConfig::default());
        let inst = instance(50);
        cache.insert(&inst, 0, solve_for(&inst, "s"));
        assert!(matches!(cache.lookup(&inst, "s", 0), Lookup::Hit(_)));
        assert_eq!(cache.in_flight(), 0);
        assert_eq!((cache.hits(), cache.misses()), (1, 0));
    }

    #[test]
    fn leader_then_follower_then_cleared() {
        let cache = ScheduleCache::new(&CacheConfig::default());
        let inst = instance(51);
        let leader = lead(&cache, &inst);
        assert_eq!(cache.in_flight(), 1);
        // Pending entries stay out of `len`, the entry counts and base
        // resolution.
        assert_eq!(cache.len(), 0);
        assert_eq!(
            cache.shard_stats().iter().map(|s| s.entries).sum::<u64>(),
            0
        );
        assert!(cache.lookup_base(inst.canonical_digest()).is_none());
        let follower = follow(&cache, &inst);
        leader.publish(Ok(solve_for(&inst, "s")));
        assert_eq!(follower.wait(None).unwrap().solver, "s");
        assert_eq!(cache.in_flight(), 0, "publishing settles the entry");
        assert_eq!(cache.len(), 1);
        // The published solve is cached: the next caller hits.
        assert!(matches!(cache.lookup(&inst, "s", 0), Lookup::Hit(_)));
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
        assert_eq!(cache.lookup_base(inst.canonical_digest()), Some(inst));
    }

    #[test]
    fn exactly_one_leader_under_contention() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;
        const THREADS: usize = 8;
        let cache = Arc::new(ScheduleCache::new(&CacheConfig::default()));
        let inst = Arc::new(instance(52));
        let leaders = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (cache, inst) = (Arc::clone(&cache), Arc::clone(&inst));
                let (leaders, barrier) = (Arc::clone(&leaders), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    match cache.lookup(&inst, "s", 0) {
                        Lookup::Hit(hit) => hit.solver,
                        Lookup::Lead(leader) => {
                            leaders.fetch_add(1, Ordering::SeqCst);
                            leader.publish(Ok(solve_for(&inst, "winner")));
                            "winner".to_string()
                        }
                        Lookup::Follow(follower) => follower.wait(None).unwrap().solver,
                    }
                })
            })
            .collect();
        for handle in handles {
            assert_eq!(handle.join().unwrap(), "winner");
        }
        assert_eq!(leaders.load(Ordering::SeqCst), 1);
        assert_eq!(cache.in_flight(), 0);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hits() + cache.misses(), THREADS as u64);
    }

    #[test]
    fn leader_errors_propagate_but_are_not_sticky() {
        let cache = ScheduleCache::new(&CacheConfig::default());
        let inst = instance(53);
        let leader = lead(&cache, &inst);
        let follower = follow(&cache, &inst);
        leader.publish(Err(SolveFailure::new(
            error_kind::SOLVER_ERROR,
            "infeasible",
        )));
        assert_eq!(follower.wait(None).unwrap_err().message, "infeasible");
        assert_eq!((cache.in_flight(), cache.len()), (0, 0));
        // The next request leads a fresh attempt.
        let _retry = lead(&cache, &inst);
    }

    #[test]
    fn follower_deadline_binds_while_waiting() {
        let cache = ScheduleCache::new(&CacheConfig::default());
        let inst = instance(54);
        let leader = lead(&cache, &inst);
        let follower = follow(&cache, &inst);
        // The leader is still solving: a follower whose deadline passes gives
        // up with a structured time-budget failure.
        let err = follower.wait(Some(Instant::now())).unwrap_err();
        assert_eq!(err.kind, error_kind::BUDGET_EXHAUSTED);
        assert_eq!(err.budget.unwrap().exhausted, "time");
        // The leader's solve still lands in the cache.
        leader.publish(Ok(solve_for(&inst, "s")));
        assert_eq!((cache.in_flight(), cache.len()), (0, 1));
    }

    #[test]
    fn follower_wait_until_returns_published_results() {
        let cache = ScheduleCache::new(&CacheConfig::default());
        let inst = instance(55);
        let leader = lead(&cache, &inst);
        let follower = follow(&cache, &inst);
        leader.publish(Ok(solve_for(&inst, "fast")));
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        assert_eq!(follower.wait(Some(deadline)).unwrap().solver, "fast");
    }

    #[test]
    fn dropped_leader_releases_followers_with_an_error() {
        let cache = ScheduleCache::new(&CacheConfig::default());
        let inst = instance(56);
        let leader = lead(&cache, &inst);
        let follower = follow(&cache, &inst);
        drop(leader); // what a panicking leader's unwind does
        let err = follower.wait(None).unwrap_err();
        assert_eq!(err.kind, error_kind::SOLVER_ERROR);
        assert!(err.message.contains("leader panicked"), "err: {err:?}");
        assert_eq!((cache.in_flight(), cache.len()), (0, 0));
    }

    #[test]
    fn digest_collisions_lead_separately() {
        let cache = ScheduleCache::new(&CacheConfig::default());
        let (a, b) = (instance(57), instance(58));
        assert_ne!(a, b);
        let leader_a = match cache.lookup_digest(7, &a, "s", 0) {
            Lookup::Lead(leader) => leader,
            _ => panic!("a must lead"),
        };
        // Same digest, different instance: b leads its own solve.
        let leader_b = match cache.lookup_digest(7, &b, "s", 0) {
            Lookup::Lead(leader) => leader,
            _ => panic!("b must lead its own solve, not follow a's"),
        };
        assert_eq!(cache.in_flight(), 2);
        leader_a.publish(Ok(solve_for(&a, "s")));
        leader_b.publish(Err(SolveFailure::new(error_kind::SOLVER_ERROR, "b failed")));
        // b's failure removed only b's entry.
        assert!(matches!(cache.lookup_digest(7, &a, "s", 0), Lookup::Hit(_)));
        assert!(matches!(
            cache.lookup_digest(7, &b, "s", 0),
            Lookup::Lead(_)
        ));
        assert_eq!((cache.in_flight(), cache.len()), (0, 1));
    }

    #[test]
    fn pending_entries_are_never_evicted() {
        let cache = ScheduleCache::new(&CacheConfig {
            num_shards: 1,
            capacity_per_shard: 1,
        });
        let (a, b, c) = (instance(60), instance(61), instance(62));
        cache.insert(&a, 0, solve_for(&a, "s"));
        let leader_b = lead(&cache, &b);
        // Inserting c overflows the shard: the ready `a` goes, pending `b`
        // stays.
        cache.insert(&c, 0, solve_for(&c, "s"));
        assert_eq!(
            (cache.len(), cache.in_flight(), cache.evictions()),
            (1, 1, 1)
        );
        assert!(get(&cache, &a, "s", 0).is_none());
        leader_b.publish(Ok(solve_for(&b, "s")));
        assert_eq!(
            (cache.len(), cache.in_flight(), cache.evictions()),
            (1, 0, 2)
        );
        assert!(get(&cache, &b, "s", 0).is_some());
    }

    #[test]
    fn insert_over_a_pending_entry_makes_it_ready() {
        // A `Refresh` solve landing while a default-policy leader runs.
        let cache = ScheduleCache::new(&CacheConfig::default());
        let inst = instance(63);
        let leader = lead(&cache, &inst);
        let follower = follow(&cache, &inst);
        cache.insert(&inst, 0, solve_for(&inst, "s"));
        assert_eq!((cache.len(), cache.in_flight()), (1, 0));
        // The leader's failure neither removes the refreshed entry nor
        // leaves its follower waiting.
        leader.publish(Err(SolveFailure::new(error_kind::SOLVER_ERROR, "late")));
        assert_eq!(follower.wait(None).unwrap_err().message, "late");
        assert!(get(&cache, &inst, "s", 0).is_some());
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = Arc::new(ScheduleCache::new(&CacheConfig {
            num_shards: 4,
            capacity_per_shard: 16,
        }));
        let instances: Vec<SuuInstance> = (0..8).map(instance).collect();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let cache = Arc::clone(&cache);
                let instances = instances.clone();
                std::thread::spawn(move || {
                    for round in 0..50 {
                        let inst = &instances[(t + round) % instances.len()];
                        match cache.lookup(inst, "s", 0) {
                            Lookup::Hit(_) => {}
                            Lookup::Lead(leader) => leader.publish(Ok(solve_for(inst, "s"))),
                            Lookup::Follow(follower) => {
                                follower.wait(None).unwrap();
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cache.len(), 8);
        assert_eq!(cache.in_flight(), 0);
        assert!(cache.hits() + cache.misses() == 200);
    }
}
