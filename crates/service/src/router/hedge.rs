//! Hedged reads: after a quantile-derived delay, duplicate a slow read to
//! a second replica and relay whichever answer lands first.
//!
//! The hedge delay adapts to the observed read-latency distribution — a
//! ring of recent samples, queried at the configured quantile — so hedges
//! fire only for genuinely slow requests (~`1 - q` of traffic) instead of
//! doubling load. Both attempts carry the client's original request line
//! (same id); exactly one response is relayed (dedup by the winner claim),
//! and the loser's connection is dropped rather than pooled, which closes
//! the socket and cancels any answer still in flight.

use crate::client::{connect, exchange_on, exchange_split, Conn, ExchangeError};
use crate::router::pool::Backend;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Ring buffer of recent read latencies, queried at a quantile to derive
/// the hedge delay.
pub(crate) struct LatencyWindow {
    samples: Mutex<Vec<u64>>, // microseconds, ring of up to CAP
    cursor: AtomicUsize,
}

const CAP: usize = 512;

impl LatencyWindow {
    pub(crate) fn new() -> LatencyWindow {
        LatencyWindow {
            samples: Mutex::new(Vec::new()),
            cursor: AtomicUsize::new(0),
        }
    }

    pub(crate) fn record(&self, latency: Duration) {
        let micros = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        let mut s = self.samples.lock().unwrap();
        if s.len() < CAP {
            s.push(micros);
        } else {
            let at = self.cursor.fetch_add(1, Ordering::Relaxed) % CAP;
            s[at] = micros;
        }
    }

    /// The `q`-quantile of the window, or None with too few samples to
    /// say anything (hedging waits for a baseline before firing).
    pub(crate) fn quantile(&self, q: f64) -> Option<Duration> {
        let s = self.samples.lock().unwrap();
        if s.len() < 16 {
            return None;
        }
        let mut sorted = s.clone();
        drop(s);
        sorted.sort_unstable();
        let rank = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        Some(Duration::from_micros(sorted[rank]))
    }
}

/// Outcome of one hedged (or plain) read attempt race.
pub(crate) struct HedgeOutcome {
    /// The raw winning response line.
    pub raw: String,
    /// True when the duplicate (second) attempt won.
    pub hedge_won: bool,
    /// Whether a duplicate was issued at all.
    pub hedged: bool,
    /// Time to the winning response.
    pub latency: Duration,
}

/// Runs `line` against `first`, duplicating onto `second` if no answer
/// arrives within `delay`. Returns the first successful response, or the
/// last error once every attempt has failed.
pub(crate) fn hedged_read(
    first: Arc<Backend>,
    second: Option<Arc<Backend>>,
    line: &str,
    delay: Duration,
    timeout: Duration,
    cfg: &crate::router::RouterConfig,
) -> Result<HedgeOutcome, std::io::Error> {
    let started = Instant::now();
    let (tx, rx) = mpsc::channel::<(usize, std::io::Result<String>)>();
    let winner: Arc<AtomicUsize> = Arc::new(AtomicUsize::new(usize::MAX));

    let launch = |idx: usize, backend: Arc<Backend>, tx: mpsc::Sender<_>| {
        let line = line.to_string();
        let winner = winner.clone();
        let cfg = cfg.clone();
        std::thread::Builder::new()
            .name("rwr-router-read".into())
            .spawn(move || {
                let result = attempt(&backend, &line, timeout, &cfg);
                let claimed = result.is_ok()
                    && winner
                        .compare_exchange(usize::MAX, idx, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok();
                match result {
                    Ok((raw, conn)) => {
                        if claimed {
                            // Winner: a clean exchange, so the conn pools.
                            backend.park_conn(conn);
                        }
                        // Loser: drop the conn (closes the socket) —
                        // cancels nothing in flight, there is nothing
                        // left in flight, but keeps the pool honest.
                        let _ = tx.send((idx, Ok(raw)));
                    }
                    Err(e) => {
                        let _ = tx.send((idx, Err(e)));
                    }
                }
            })
            .ok();
    };

    launch(0, first, tx.clone());
    let mut hedged = false;
    let mut outstanding = 1usize;
    let mut last_err: Option<std::io::Error> = None;
    let hard_deadline = started + timeout + delay;
    loop {
        let wait = if hedged || second.is_none() {
            hard_deadline.saturating_duration_since(Instant::now())
        } else {
            delay.saturating_sub(started.elapsed())
        };
        match rx.recv_timeout(wait) {
            Ok((idx, Ok(raw))) => {
                // Dedup: only the claimed winner is relayed; a second
                // success (the loser) is discarded here.
                if winner.load(Ordering::Acquire) == idx {
                    return Ok(HedgeOutcome {
                        raw,
                        hedge_won: idx == 1,
                        hedged,
                        latency: started.elapsed(),
                    });
                }
                outstanding -= 1;
            }
            Ok((_, Err(e))) => {
                last_err = Some(e);
                outstanding -= 1;
                if outstanding == 0 && (hedged || second.is_none()) {
                    break;
                }
                if outstanding == 0 {
                    // Sole attempt failed before the hedge delay: fire
                    // the duplicate immediately rather than waiting.
                    if let Some(b) = second.clone() {
                        hedged = true;
                        outstanding += 1;
                        launch(1, b, tx.clone());
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if !hedged {
                    if let Some(b) = second.clone() {
                        hedged = true;
                        outstanding += 1;
                        launch(1, b, tx.clone());
                        continue;
                    }
                }
                break;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    Err(last_err.unwrap_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::TimedOut, "read timed out on all attempts")
    }))
}

/// One read attempt: pooled conn if available (retrying once on a stale
/// pooled socket), else fresh. Returns the response and the live conn.
fn attempt(
    backend: &Backend,
    line: &str,
    timeout: Duration,
    cfg: &crate::router::RouterConfig,
) -> std::io::Result<(String, Conn)> {
    let connect_timeout = Duration::from_millis(cfg.probe_timeout_ms);
    if let Some(mut conn) = backend.checkout() {
        match exchange_split(&mut conn, line, Some(timeout)) {
            Ok(raw) => return Ok((raw, conn)),
            // A pooled conn that dies on the *write* was simply stale
            // (closed by the backend's idle timeout): fall through to a
            // fresh connect without charging the breaker.
            Err(ExchangeError::PreWrite(_)) => {}
            Err(ExchangeError::PostWrite(e)) => {
                backend.note_failure(cfg);
                return Err(e);
            }
        }
    }
    let mut conn =
        connect(&backend.addr, Some(connect_timeout)).inspect_err(|_| backend.note_failure(cfg))?;
    match exchange_on(&mut conn, line, Some(timeout)) {
        Ok(raw) => {
            backend.note_success();
            Ok((raw, conn))
        }
        Err(e) => {
            backend.note_failure(cfg);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_window_quantiles() {
        let w = LatencyWindow::new();
        assert!(w.quantile(0.95).is_none(), "no baseline, no hedging");
        for i in 1..=100u64 {
            w.record(Duration::from_micros(i * 100));
        }
        let p50 = w.quantile(0.5).unwrap();
        let p95 = w.quantile(0.95).unwrap();
        assert!(p50 < p95);
        assert!(p95 <= Duration::from_micros(10_000));
        // The ring wraps: ancient samples stop influencing the quantile.
        for _ in 0..CAP * 2 {
            w.record(Duration::from_micros(50));
        }
        assert_eq!(w.quantile(0.95).unwrap(), Duration::from_micros(50));
    }
}
