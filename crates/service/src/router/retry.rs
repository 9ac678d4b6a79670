//! The retry policy's typed terminal errors and pacing. The connection
//! plumbing it relies on lives in [`crate::client`].
//!
//! ## Retry safety
//!
//! The wire protocol executes only complete lines, which gives an exact
//! rule for what may be retried:
//!
//! * **Reads** (`query`, `stats`) are idempotent: any transport failure —
//!   before, during, or after the write — is retryable, on the same or a
//!   different backend, up to the per-request budget.
//! * **Mutations** are retried only on *pre-ack connection loss where the
//!   request line cannot have been executed*: a failed `connect` or a
//!   failed write of the request line. To make "failed write ⇒ not
//!   executed" airtight, mutations always use a **fresh** connection —
//!   a pooled connection can die between checkout and use, turning a
//!   locally-buffered "successful" write into an ambiguous one. Once the
//!   line is fully written, a failure while awaiting the response is
//!   ambiguous (the backend may have applied and even acked into a dead
//!   socket), so the router stops with the typed [`RouterError::InDoubt`]
//!   rather than risking a double apply.

use std::time::Duration;

/// Typed terminal errors the router reports to clients once a request's
/// retry budget or park deadline is spent. Rendered via the same
/// `error_fields` helper the server uses, so clients see one error shape.
#[derive(Debug)]
pub(crate) enum RouterError {
    /// No backend could serve within the retry budget.
    Unavailable(String),
    /// The park/forward deadline expired before a backend qualified.
    Timeout(String),
    /// A mutation's request line was delivered but its ack was lost; the
    /// write may or may not be applied. Never auto-retried.
    InDoubt(String),
}

impl RouterError {
    /// Wire error code.
    pub(crate) fn code(&self) -> &'static str {
        match self {
            RouterError::Unavailable(_) => "unavailable",
            RouterError::Timeout(_) => "timeout",
            RouterError::InDoubt(_) => "in_doubt",
        }
    }

    /// Human detail for the `detail` field.
    pub(crate) fn detail(&self) -> &str {
        match self {
            RouterError::Unavailable(d) | RouterError::Timeout(d) | RouterError::InDoubt(d) => d,
        }
    }
}

/// Per-request retry pacing: the shared jittered backoff policy, scaled
/// for a proxy hop (10 ms doubling to 200 ms — a router retry is racing a
/// failover, not a WAN reconnect).
pub(crate) const RETRY_BACKOFF: resacc::backoff::BackoffPolicy = resacc::backoff::BackoffPolicy::new(
    Duration::from_millis(10),
    Duration::from_millis(200),
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_error_codes_are_stable() {
        assert_eq!(RouterError::Unavailable(String::new()).code(), "unavailable");
        assert_eq!(RouterError::Timeout(String::new()).code(), "timeout");
        assert_eq!(RouterError::InDoubt(String::new()).code(), "in_doubt");
    }
}
