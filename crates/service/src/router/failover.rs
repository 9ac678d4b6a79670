//! Failover orchestration: when probes declare the primary dead, promote
//! the most-caught-up replica over the existing epoch-fence path.
//!
//! ```text
//!                ┌─────────────────────────────────────────────┐
//!                ▼                                             │
//!   [steady: primary writable] ──probes miss──► [no primary]   │
//!        ▲                                          │          │
//!        │                               re-probe all backends │
//!        │                                          ▼          │
//!        │                     [candidates: routable replicas, │
//!        │                      ordered by applied_version ↓]  │
//!        │                                          │          │
//!        └──promote ok (epoch bump + fence)─── try best ──fail─┘
//!                                                   │ (next candidate)
//!                                 none left: degraded — reads
//!                                 served stale, writes park
//! ```
//!
//! The promotion itself is the server's own `promote` op — the replica
//! drains its stream, bumps its durable epoch, and starts fencing the old
//! primary (PR 7's machinery). The router adds only *selection* (highest
//! `applied_version` wins, so no router-acked write can be left behind —
//! the semi-sync ack already guaranteed some replica applied it) and
//! *mutual exclusion* (one orchestration at a time, so two triggers can't
//! promote two replicas).

use crate::client::{connect, exchange_on};
use crate::json::Json;
use crate::router::pool::BackendPool;
use crate::router::RouterMetrics;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// How long a `promote` round-trip may take: the replica's drain phase
/// alone can wait out a 1 s quiet period, so this is generous.
const PROMOTE_TIMEOUT: Duration = Duration::from_secs(10);

/// Attempts one failover pass. Returns the promoted backend's address on
/// success. No-op (None) when another pass is already running, when a
/// writable primary reappears mid-pass, or when no candidate survives.
pub(crate) fn try_failover(pool: &Arc<BackendPool>, metrics: &RouterMetrics) -> Option<String> {
    if pool
        .failover_running
        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
        .is_err()
    {
        return None; // someone else is orchestrating
    }
    let result = run_pass(pool, metrics);
    pool.failover_running.store(false, Ordering::Release);
    result
}

fn run_pass(pool: &Arc<BackendPool>, metrics: &RouterMetrics) -> Option<String> {
    // Act on fresh truth, not a stale tick: the "dead" primary may have
    // been a probe blip, and replica applied_versions move every moment.
    pool.probe_all();
    if let Some(p) = pool.writable() {
        return Some(p.addr.clone());
    }
    // Candidates: routable read-only backends, most caught-up first.
    // (A fenced ex-primary is a valid candidate — it is a replica now,
    // and promoting it just bumps the epoch once more.)
    let mut candidates: Vec<_> = pool
        .backends
        .iter()
        .filter(|b| b.routable() && b.info().read_only)
        .cloned()
        .collect();
    candidates.sort_by_key(|b| std::cmp::Reverse(b.info().applied_version));
    for candidate in candidates {
        match promote(&candidate.addr) {
            Ok(version) => {
                metrics.failovers.fetch_add(1, Ordering::Relaxed);
                // Refresh its probe info so writers see it immediately.
                pool.probe(&candidate);
                eprintln!(
                    "router: promoted {} at version {version} (automatic failover)",
                    candidate.addr
                );
                return Some(candidate.addr.clone());
            }
            Err(e) => {
                eprintln!("router: promote {} failed: {e}", candidate.addr);
                candidate.note_failure(pool.config());
            }
        }
    }
    None
}

/// Sends `promote` to one backend and returns its post-drain version.
fn promote(addr: &str) -> Result<u64, String> {
    let mut conn =
        connect(addr, Some(Duration::from_secs(2))).map_err(|e| format!("connect: {e}"))?;
    let raw = exchange_on(
        &mut conn,
        "{\"op\":\"promote\",\"id\":0}",
        Some(PROMOTE_TIMEOUT),
    )
    .map_err(|e| format!("exchange: {e}"))?;
    let parsed = Json::parse(&raw).map_err(|e| format!("parse: {e}"))?;
    if parsed.get("ok").and_then(Json::as_bool) == Some(true) {
        Ok(parsed
            .get("version")
            .and_then(Json::as_u64)
            .unwrap_or_default())
    } else {
        let code = parsed
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("unknown");
        // "already writable" arrives from a standalone or concurrently
        // promoted node; treat it as success — the goal (a writable
        // backend) is met.
        if code.starts_with("already writable") || code.starts_with("no replication role") {
            return Ok(parsed
                .get("version")
                .and_then(Json::as_u64)
                .unwrap_or_default());
        }
        Err(format!("backend refused: {code}"))
    }
}
