//! Seeded, jittered exponential backoff — the single retry-delay policy
//! shared by every reconnect/retry loop in the workspace.
//!
//! Three call sites used to carry their own copies of this arithmetic
//! (replica reconnect, the two server accept loops); the router added a
//! fourth, so the policy now lives here once. The contract:
//!
//! * the **envelope** doubles from `start` to `max` with the (0-based)
//!   attempt number, so repeated failures space out geometrically;
//! * the actual delay is drawn from `[envelope/2, envelope]` by a
//!   splitmix-style mix of `(seed, attempt)` — *jittered*, so a fleet of
//!   peers that all lost the same endpoint never retries in lockstep and
//!   thunders it, yet *deterministic*, so a fault-injection run replays
//!   the exact same schedule every time.
//!
//! Seeds come from [`seed_from`] (FNV-1a over a label such as the peer
//! address): two processes retrying the same endpoint jitter identically,
//! different endpoints jitter differently.

use crate::par::splitmix64;
use std::time::Duration;

/// Bounds for one backoff schedule: first delay ~`start`, doubling to a
/// `max` cap. Both are envelope bounds; the drawn delay for attempt `n`
/// lies in `[envelope/2, envelope]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Envelope for attempt 0.
    pub start: Duration,
    /// Envelope cap; no delay ever exceeds this.
    pub max: Duration,
}

impl BackoffPolicy {
    /// A policy doubling from `start` to `max`.
    pub const fn new(start: Duration, max: Duration) -> Self {
        BackoffPolicy { start, max }
    }

    /// Envelope (upper bound) for the 0-based `attempt`.
    pub fn envelope(&self, attempt: u32) -> Duration {
        self.start
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max)
    }

    /// Deterministic jittered delay for `attempt` (0-based), drawn from
    /// `[envelope/2, envelope]` by a splitmix-style mix of `(seed,
    /// attempt)`.
    pub fn delay(&self, seed: u64, attempt: u32) -> Duration {
        let envelope = self.envelope(attempt).as_millis() as u64;
        let half = envelope / 2;
        let jitter =
            splitmix64(seed ^ u64::from(attempt).wrapping_mul(0x9e3779b97f4a7c15)) % (half + 1);
        Duration::from_millis(half + jitter)
    }
}

/// Folds a textual label (typically a peer address) into a backoff seed
/// via FNV-1a: peers retrying the same endpoint jitter identically, two
/// different endpoints jitter differently.
pub fn seed_from(label: &str) -> u64 {
    label.bytes().fold(0xcbf29ce484222325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const POLICY: BackoffPolicy =
        BackoffPolicy::new(Duration::from_millis(100), Duration::from_secs(2));

    #[test]
    fn delays_stay_inside_the_envelope() {
        for seed in [0u64, 1, u64::MAX, seed_from("a:1")] {
            for attempt in 0..64 {
                let d = POLICY.delay(seed, attempt);
                let envelope = POLICY.envelope(attempt);
                assert!(d <= envelope, "attempt {attempt}: {d:?} > {envelope:?}");
                assert!(d >= envelope / 2, "attempt {attempt}: {d:?} below half");
            }
            // The tail settles into [max/2, max].
            assert!(POLICY.delay(seed, 63) >= POLICY.max / 2);
            assert!(POLICY.delay(seed, 63) <= POLICY.max);
        }
    }

    #[test]
    fn schedule_is_deterministic_and_seed_sensitive() {
        let a: Vec<Duration> = (0..8).map(|n| POLICY.delay(7, n)).collect();
        let b: Vec<Duration> = (0..8).map(|n| POLICY.delay(7, n)).collect();
        assert_eq!(a, b, "same seed, same schedule");
        let c: Vec<Duration> = (0..8).map(|n| POLICY.delay(8, n)).collect();
        assert_ne!(a, c, "different seeds must jitter differently");
    }

    #[test]
    fn envelope_doubles_then_caps_without_overflow() {
        assert_eq!(POLICY.envelope(0), Duration::from_millis(100));
        assert_eq!(POLICY.envelope(1), Duration::from_millis(200));
        assert_eq!(POLICY.envelope(4), Duration::from_millis(1600));
        assert_eq!(POLICY.envelope(5), Duration::from_secs(2));
        // Far past the cap: the shift is clamped, never overflows.
        assert_eq!(POLICY.envelope(u32::MAX), Duration::from_secs(2));
    }

    #[test]
    fn seed_from_is_fnv1a() {
        // Distinct labels, distinct seeds; stable across runs.
        assert_ne!(seed_from("127.0.0.1:7001"), seed_from("127.0.0.1:7002"));
        assert_eq!(seed_from(""), 0xcbf29ce484222325);
    }
}
