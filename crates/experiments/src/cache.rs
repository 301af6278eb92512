//! Shared routing state across runs.
//!
//! A figure sweep runs the same `(mesh, fault pattern)` under many
//! algorithms, rates, and seeds. Building a [`RoutingContext`] (f-rings
//! and labeling) costs about 3–15 µs (8×8 with a few faults to 10×10
//! with ten, measured on a 2-core Xeon). The cache here hands out one
//! `Arc<RoutingContext>` per `(mesh size, pattern)` and one
//! `Arc<dyn RoutingAlgorithm>` per `(context, kind, vc)`, so the worker
//! pool's reused simulators only ever clone pointers between runs.
//!
//! Patterns are keyed by `Arc` identity, not by value: the harness builds
//! each distinct pattern once (see `figures::fault_patterns`) and clones
//! the `Arc` into every spec, so pointer identity is exactly pattern
//! identity — and hashing a pointer is free, where hashing a pattern's
//! fault list is not. The cache pins the pattern `Arc` alongside the
//! context it produced, which keeps the pointer from being reused by a
//! later allocation while the entry lives (no ABA).

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};
use wormsim_fault::FaultPattern;
use wormsim_routing::{build_algorithm, AlgorithmKind, RoutingAlgorithm, RoutingContext, VcConfig};
use wormsim_topology::Mesh;

/// Default entries per map before the oldest entry is evicted. Sweeps use
/// a few dozen patterns and a dozen algorithms; the bound guards
/// long-lived processes — the serving layer above all, whose clients can
/// mint fresh patterns indefinitely.
const CACHE_CAP: usize = 512;

/// Memoizes routing contexts and algorithm instances. See the module docs
/// for the keying scheme. Obtain the process-wide instance via
/// [`shared_cache`].
///
/// Both maps are bounded: inserting past the capacity evicts the *oldest*
/// entry (insertion order), not the whole map — a resident server must
/// not lose its entire working set because one client brought a novel
/// pattern. Eviction only drops the cache's own `Arc`s; clones handed to
/// in-flight runs stay valid for as long as those runs hold them, and a
/// re-request after eviction simply rebuilds (under a fresh `Arc`).
pub struct ContextCache {
    /// Entries per map before eviction kicks in.
    cap: usize,
    /// `(mesh size, pattern identity)` → the pattern (pinned) + context.
    ctxs: HashMap<(u16, usize), (Arc<FaultPattern>, Arc<RoutingContext>)>,
    /// Insertion order of `ctxs` keys (front = oldest).
    ctx_order: VecDeque<(u16, usize)>,
    /// `(context identity, kind, vc)` → the context (pinned) + algorithm.
    #[allow(clippy::type_complexity)]
    algos:
        HashMap<(usize, AlgorithmKind, VcConfig), (Arc<RoutingContext>, Arc<dyn RoutingAlgorithm>)>,
    /// Insertion order of `algos` keys (front = oldest).
    algo_order: VecDeque<(usize, AlgorithmKind, VcConfig)>,
}

impl Default for ContextCache {
    fn default() -> Self {
        ContextCache::with_capacity(CACHE_CAP)
    }
}

impl ContextCache {
    /// A cache evicting oldest-first once either map holds `cap` entries.
    pub fn with_capacity(cap: usize) -> Self {
        ContextCache {
            cap: cap.max(1),
            ctxs: HashMap::new(),
            ctx_order: VecDeque::new(),
            algos: HashMap::new(),
            algo_order: VecDeque::new(),
        }
    }

    /// The routing context for a square mesh of `mesh_size` under
    /// `pattern`, built on first use and shared thereafter.
    pub fn context(&mut self, mesh_size: u16, pattern: &Arc<FaultPattern>) -> Arc<RoutingContext> {
        let key = (mesh_size, Arc::as_ptr(pattern) as usize);
        if let Some((_, ctx)) = self.ctxs.get(&key) {
            return ctx.clone();
        }
        while self.ctxs.len() >= self.cap {
            if let Some(oldest) = self.ctx_order.pop_front() {
                self.ctxs.remove(&oldest);
            } else {
                break;
            }
        }
        let mesh = Mesh::square(mesh_size);
        let ctx = Arc::new(RoutingContext::new(mesh, (**pattern).clone()));
        self.ctxs.insert(key, (pattern.clone(), ctx.clone()));
        self.ctx_order.push_back(key);
        ctx
    }

    /// The algorithm instance of `kind` bound to `ctx` with `vc`, built on
    /// first use and shared thereafter. Algorithms only read their context
    /// after construction, so one instance serves any number of
    /// (sequential or concurrent) runs.
    pub fn algorithm(
        &mut self,
        kind: AlgorithmKind,
        ctx: &Arc<RoutingContext>,
        vc: VcConfig,
    ) -> Arc<dyn RoutingAlgorithm> {
        let key = (Arc::as_ptr(ctx) as usize, kind, vc);
        if let Some((_, algo)) = self.algos.get(&key) {
            return algo.clone();
        }
        while self.algos.len() >= self.cap {
            if let Some(oldest) = self.algo_order.pop_front() {
                self.algos.remove(&oldest);
            } else {
                break;
            }
        }
        let algo: Arc<dyn RoutingAlgorithm> = build_algorithm(kind, ctx.clone(), vc).into();
        self.algos.insert(key, (ctx.clone(), algo.clone()));
        self.algo_order.push_back(key);
        algo
    }

    /// Drop every cached entry (contexts and algorithms).
    pub fn clear(&mut self) {
        self.ctxs.clear();
        self.ctx_order.clear();
        self.algos.clear();
        self.algo_order.clear();
    }

    /// Whether a context for `(mesh_size, pattern)` is currently resident
    /// (non-mutating peek; eviction tests use it to observe state without
    /// re-inserting).
    pub fn context_cached(&self, mesh_size: u16, pattern: &Arc<FaultPattern>) -> bool {
        self.ctxs
            .contains_key(&(mesh_size, Arc::as_ptr(pattern) as usize))
    }

    /// Number of cached contexts (test hook).
    pub fn contexts_cached(&self) -> usize {
        self.ctxs.len()
    }

    /// Number of cached algorithm instances (test hook).
    pub fn algorithms_cached(&self) -> usize {
        self.algos.len()
    }
}

/// The process-wide cache used by `run_single` / `run_custom`.
pub fn shared_cache() -> &'static Mutex<ContextCache> {
    static CACHE: OnceLock<Mutex<ContextCache>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(ContextCache::default()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_is_shared_per_pattern_identity() {
        let mesh = Mesh::square(6);
        let pattern = Arc::new(FaultPattern::fault_free(&mesh));
        let mut cache = ContextCache::default();
        let a = cache.context(6, &pattern);
        let b = cache.context(6, &pattern);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.contexts_cached(), 1);

        // Same value, different Arc: a distinct pattern identity.
        let other = Arc::new(FaultPattern::fault_free(&mesh));
        let c = cache.context(6, &other);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.contexts_cached(), 2);

        // Same pattern on a different mesh size is a distinct context.
        let d = cache.context(8, &Arc::new(FaultPattern::fault_free(&Mesh::square(8))));
        assert!(!Arc::ptr_eq(&a, &d));
    }

    #[test]
    fn filling_past_the_bound_evicts_oldest_contexts() {
        let mesh = Mesh::square(6);
        let mut cache = ContextCache::with_capacity(3);
        let patterns: Vec<Arc<FaultPattern>> = (0..5)
            .map(|_| Arc::new(FaultPattern::fault_free(&mesh)))
            .collect();
        let ctxs: Vec<Arc<RoutingContext>> = patterns.iter().map(|p| cache.context(6, p)).collect();
        // The bound holds: 5 inserts through a 3-entry cache keep 3.
        assert_eq!(cache.contexts_cached(), 3);
        // Oldest-first: patterns 0 and 1 were evicted, 2..5 are resident.
        for (i, p) in patterns.iter().enumerate() {
            assert_eq!(cache.context_cached(6, p), i >= 2, "pattern {i}");
        }
        // Re-requesting an evicted pattern rebuilds under a fresh Arc;
        // a resident one is still the shared instance.
        assert!(!Arc::ptr_eq(&ctxs[0], &cache.context(6, &patterns[0])));
        assert!(Arc::ptr_eq(&ctxs[4], &cache.context(6, &patterns[4])));
    }

    #[test]
    fn evicted_arcs_held_by_in_flight_runs_stay_valid() {
        let mesh = Mesh::square(6);
        let mut cache = ContextCache::with_capacity(2);
        let first = Arc::new(FaultPattern::fault_free(&mesh));
        let held_ctx = cache.context(6, &first);
        let held_algo = cache.algorithm(AlgorithmKind::Duato, &held_ctx, VcConfig::paper());
        // Flood both maps far past the bound.
        for _ in 0..8 {
            let p = Arc::new(FaultPattern::fault_free(&mesh));
            let c = cache.context(6, &p);
            cache.algorithm(AlgorithmKind::Duato, &c, VcConfig::paper());
        }
        assert_eq!(cache.contexts_cached(), 2);
        assert_eq!(cache.algorithms_cached(), 2);
        // The clones an in-flight run holds keep working after eviction:
        // eviction drops the cache's Arc, not the object.
        assert_eq!(held_ctx.mesh().num_nodes(), 36);
        let mut st = held_algo.init_message(mesh.node(0, 0), mesh.node(5, 5));
        let _ = held_algo.route(mesh.node(0, 0), &mut st);
        // A re-request after eviction rebuilds correctly (fresh identity).
        let rebuilt = cache.context(6, &first);
        assert!(!Arc::ptr_eq(&held_ctx, &rebuilt));
        assert_eq!(rebuilt.mesh().num_nodes(), 36);
    }

    #[test]
    fn algorithm_is_shared_per_context_kind_vc() {
        let mesh = Mesh::square(6);
        let pattern = Arc::new(FaultPattern::fault_free(&mesh));
        let mut cache = ContextCache::default();
        let ctx = cache.context(6, &pattern);
        let a = cache.algorithm(AlgorithmKind::Duato, &ctx, VcConfig::paper());
        let b = cache.algorithm(AlgorithmKind::Duato, &ctx, VcConfig::paper());
        assert!(Arc::ptr_eq(&a, &b));
        let c = cache.algorithm(AlgorithmKind::Xy, &ctx, VcConfig::paper());
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.algorithms_cached(), 2);
    }
}
