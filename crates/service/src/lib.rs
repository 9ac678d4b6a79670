//! # resacc-service
//!
//! A concurrent SSRWR query service over a shared [`resacc::RwrSession`] —
//! the serving layer the paper's index-free argument enables: because
//! ResAcc has no index to rebuild, one process can interleave queries and
//! graph mutations and stay correct, so the interesting engineering is
//! pure systems work: scheduling, caching, and measurement.
//!
//! ```text
//!   TCP (NDJSON)          scheduler                      engine
//!  ┌────────────┐   ┌──────────────────────┐   ┌──────────────────────┐
//!  │ clients ───┼──►│ queue → dispatcher ──┼──►│ workers → RwrSession │
//!  │            │   │   │ cache / coalesce │   │   (read lock, &self) │
//!  │ mutations ─┼───┼───┼──────────────────┼──►│ write lock + version │
//!  └────────────┘   └───┴──────────────────┘   └──────────────────────┘
//! ```
//!
//! * [`scheduler`] — request queue, micro-batching dispatcher, worker pool,
//!   in-flight coalescing, and the determinism contract.
//! * [`cache`] — versioned LRU; graph mutations invalidate implicitly via
//!   the session version in the key.
//! * [`metrics`] — lock-free counters and latency histograms with a
//!   [`metrics::Metrics::snapshot`] API.
//! * [`server`] — newline-delimited-JSON-over-TCP front end (std only),
//!   with bounded reads, idle timeouts, a connection cap, and graceful
//!   drain shutdown, served by one readiness-driven event loop
//!   (O(workers) threads at any connection count).
//! * [`loadgen`] — Zipfian closed-loop load generator for the server,
//!   including a chaos mode for fault-injection runs.
//! * [`fault`] — deterministic, request-id-keyed fault injection
//!   (panics, latency, forced expiry) for robustness testing.
//! * [`replication`] — this server's replication role (primary or read
//!   replica) and the `promote` switch, over [`resacc::replication`].
//! * [`router`] — resilient front-end over a primary + replica pool:
//!   health-checked circuit breakers, version-aware read balancing,
//!   retry budgets, hedged reads, and automatic fence-aware failover.
//! * [`json`] — the minimal JSON codec behind the wire format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod fault;
pub mod json;
pub mod loadgen;
pub mod metrics;
mod reactor;
pub mod replication;
pub mod router;
pub mod scheduler;
pub mod server;
pub mod tenants;

pub use cache::{CompKey, ResultCache};
pub use fault::FaultPlan;
pub use metrics::{Metrics, MetricsSnapshot};
pub use replication::ReplicationRole;
pub use router::{RouterConfig, RouterHandle, RouterMetrics};
pub use scheduler::{
    effective_seed, splitmix64, threads_per_query_budget, ErrorKind, QueryRequest, QueryResponse,
    Scheduler, SchedulerConfig, ServiceError,
};
pub use server::{serve, serve_tenants, spawn, ServerConfig, ServerHandle};
pub use tenants::{Tenant, TenantFactory, TenantSeed, Tenants};

use resacc::resacc::ResAccConfig;
use resacc::RwrParams;

/// FNV-1a hash of every parameter the engine's output depends on. Part of
/// the [`CompKey`]: two sessions configured differently can never share
/// cache entries even if their graphs and seeds coincide.
///
/// `config.threads` is deliberately **excluded**: the chunked-stream RNG
/// contract makes thread count output-invariant, so hashing it would split
/// the cache (and defeat coalescing) between requests that are guaranteed
/// to produce identical bytes.
pub fn params_hash(params: &RwrParams, config: &ResAccConfig) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    eat(params.alpha.to_bits());
    eat(params.epsilon.to_bits());
    eat(params.delta.to_bits());
    eat(params.p_f.to_bits());
    eat(config.h as u64);
    eat(config.r_max_hop.to_bits());
    eat(config.r_max_f.map_or(u64::MAX, f64::to_bits));
    eat(config.use_loop_accumulation as u64);
    eat(config.use_subgraph as u64);
    eat(config.use_omfwd as u64);
    eat(config.walk_scale.to_bits());
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_hash_separates_configurations() {
        let p = RwrParams::for_graph(1000);
        let c = ResAccConfig::default();
        let base = params_hash(&p, &c);
        assert_eq!(base, params_hash(&p, &c), "deterministic");
        assert_ne!(base, params_hash(&p.with_alpha(0.3), &c));
        assert_ne!(base, params_hash(&p.with_epsilon(0.25), &c));
        let mut c2 = c;
        c2.h += 1;
        assert_ne!(base, params_hash(&p, &c2));
        let mut c3 = c;
        c3.use_omfwd = false;
        assert_ne!(base, params_hash(&p, &c3));
    }

    #[test]
    fn params_hash_ignores_threads() {
        // Thread count never affects results, so it must never split the
        // cache: equal hashes for any thread budget.
        let p = RwrParams::for_graph(1000);
        let c = ResAccConfig::default();
        assert_eq!(params_hash(&p, &c), params_hash(&p, &c.with_threads(8)));
    }
}
