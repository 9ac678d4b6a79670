//! Deterministic intra-query parallelism for the random-walk phases.
//!
//! ## The chunked-stream RNG contract
//!
//! The remedy phase (and the `MC` baseline) used to consume **one**
//! sequential RNG stream: walk `i+1` could not start before walk `i`
//! finished, so a single heavy query was pinned to one core. This module
//! replaces that with a scheme that is parallel by construction yet
//! bit-identical at any thread count:
//!
//! 1. Each node's walk budget is split into [`CHECK_INTERVAL`]-sized
//!    *chunks* ([`WalkChunk`]), in the deterministic order the residues are
//!    iterated (first-touch order of the push phase).
//! 2. Each chunk gets its **own** RNG stream, seeded by
//!    [`chunk_seed`]`(seed, node, chunk_idx)` — a splitmix64 mix of the
//!    query seed, the node id and the chunk's index *within that node*.
//!    No chunk ever reads another chunk's stream, so chunks can run in any
//!    order, on any thread.
//! 3. Scores are reduced **in fixed chunk order**: the serial path credits
//!    terminals while walking; the parallel path records each chunk's
//!    terminals into a buffer and replays the same `scores[t] += credit`
//!    additions chunk by chunk. The sequence of f64 additions is therefore
//!    *identical* in both paths — equality is bitwise, not approximate.
//!
//! This chunked scheme is the canonical RNG contract for serial *and*
//! parallel execution (golden values were re-baselined once when it
//! replaced the sequential stream; see DESIGN.md §10).
//!
//! ## Execution
//!
//! [`run_plan`] runs a [`WalkPlan`] serially (credits applied while
//! walking, no buffering, no thread spawn) unless it has `threads > 1` and
//! fills at least one wave of `threads × WAVE_WALKS` walks
//! ([`runs_parallel`]); below that, spawn cost would eat the gain. Above
//! it, the plan runs in *waves*:
//!
//! * **Sized by walks.** A wave takes the next chunks in plan order until it
//!   holds `threads × WAVE_WALKS` walks, and always at least one chunk. A
//!   ResAcc plan is mostly 1–3-walk chunks, so sizing waves by chunk count
//!   would pay a spawn/join round per few dozen walks.
//! * **Balanced by walks.** Each wave is cut into `threads` contiguous
//!   slices of about equal walk count (a slice may be empty when the wave
//!   has fewer chunks than threads). The calling thread walks slice 0
//!   itself; only `threads − 1` scoped threads are spawned per wave.
//! * **One buffer per wave.** The wave's terminals go to one `Vec`, cut
//!   into disjoint `&mut` runs, one per slice (no locks on the walk path).
//!   Chunk `k`'s terminals are the next `walks` entries of its slice's run,
//!   so the reduction is one pass over the wave's chunks in plan order.
//!
//! The buffer is reused across waves and holds fewer than
//! `threads × WAVE_WALKS + CHECK_INTERVAL` terminal ids, so extra memory
//! stays below `threads × (WAVE_WALKS + CHECK_INTERVAL)` ids of 4 B each
//! (about 264 KiB at 2 threads) whatever the total walk count.
//!
//! ## Cancellation
//!
//! All workers share one [`SharedTicker`] over the query's [`Cancel`]
//! token, so the combined operation count is checked at the same
//! [`CHECK_INTERVAL`] granularity as the serial path. The first worker to
//! observe expiry parks the error in an [`Abort`] latch (first error wins);
//! the other workers bail out at their next chunk boundary, the wave's
//! partial buffers are discarded *before* any reduction, and the caller
//! receives `Err` — partially-accumulated scores are the caller's to throw
//! away, which `RwrSession` already does by resetting the pooled workspace.

use crate::cancel::{Cancel, QueryError, SharedTicker, CHECK_INTERVAL};
use crate::walker::Walker;
use parking_lot::Mutex;
use resacc_graph::{CsrGraph, NodeId};
use std::sync::atomic::{AtomicBool, Ordering};

/// One splitmix64 step — the standard 64-bit finalizer/mixer.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// The RNG seed of chunk `chunk_idx` of node `node` under query seed
/// `seed`. Part of the determinism contract: every execution mode derives
/// chunk streams exactly this way, so thread count can never reach the RNG.
pub fn chunk_seed(seed: u64, node: NodeId, chunk_idx: u32) -> u64 {
    splitmix64(seed ^ splitmix64(((node as u64) << 32) | chunk_idx as u64))
}

/// Walks each worker records per wave of the parallel path, and the serial
/// threshold: a plan runs in parallel only when it fills one whole wave of
/// `threads × WAVE_WALKS` walks.
///
/// Measured crossover (`bench_parallel`, 8 queries on the `dblp` analogue,
/// three runs per point, with the threshold removed) on a 2-vCPU x86 host
/// without real parallelism: its two threads together run at about one
/// core's throughput, so parity with serial is the ceiling there. At 2
/// threads the walk-sized waves read 0.65–0.90× of serial at 12k–20k walks
/// per query, 0.79–1.02× at 37k, and 0.90–1.36× (median 0.96×) from 70k
/// (`2 × 2^15`) to 544k; at 4 threads, 0.61–0.94× at 37k and 0.85–1.09×
/// from 70k up. So below about `2^15` walks per thread, spawn and
/// reduction cost more than a second thread returns on that host. Where
/// cores do run in parallel the crossover is likely lower and unmeasured:
/// re-run that sweep there (`RESACC_BENCH_PARALLEL_WALK_SCALE` straddling
/// the threshold, at `RESACC_BENCH_PARALLEL_THREADS=2` and the default)
/// before re-tuning this constant.
pub const WAVE_WALKS: u64 = 1 << 15;

/// Whether [`run_plan`] runs a plan of `total_walks` walks on `threads`
/// threads in parallel: only when the plan fills at least one wave.
pub fn runs_parallel(total_walks: u64, threads: usize) -> bool {
    threads > 1 && total_walks >= threads as u64 * WAVE_WALKS
}

/// A unit of remedy work: up to [`CHECK_INTERVAL`] walks from one node,
/// crediting `credit` per walk, on a private RNG stream.
#[derive(Clone, Copy, Debug)]
pub struct WalkChunk {
    /// Walk start node.
    pub node: NodeId,
    /// Walks in this chunk (1 ..= `CHECK_INTERVAL`).
    pub walks: u32,
    /// Score credited to each walk's terminal node.
    pub credit: f64,
    /// The chunk's private RNG seed ([`chunk_seed`]).
    pub seed: u64,
}

/// A deterministic walk schedule: chunks in canonical (node, chunk) order.
#[derive(Clone, Debug, Default)]
pub struct WalkPlan {
    /// The chunks, in execution/reduction order.
    pub chunks: Vec<WalkChunk>,
    /// Total walks across all chunks.
    pub total_walks: u64,
}

impl WalkPlan {
    /// An empty plan.
    pub fn new() -> Self {
        WalkPlan::default()
    }

    /// Appends `walks` walks from `node` at `credit` each, split into
    /// `CHECK_INTERVAL`-sized chunks with per-chunk seeds derived from the
    /// query `seed`.
    pub fn push_node(&mut self, node: NodeId, walks: u64, credit: f64, seed: u64) {
        let mut remaining = walks;
        let mut chunk_idx = 0u32;
        while remaining > 0 {
            let w = remaining.min(CHECK_INTERVAL as u64) as u32;
            self.chunks.push(WalkChunk {
                node,
                walks: w,
                credit,
                seed: chunk_seed(seed, node, chunk_idx),
            });
            remaining -= w as u64;
            chunk_idx = chunk_idx.wrapping_add(1);
        }
        self.total_walks += walks;
    }
}

/// First-error-wins latch shared by the workers of one parallel phase.
struct Abort {
    flag: AtomicBool,
    error: Mutex<Option<QueryError>>,
}

impl Abort {
    fn new() -> Self {
        Abort {
            flag: AtomicBool::new(false),
            error: Mutex::new(None),
        }
    }

    /// Cheap pre-chunk poll so siblings stop within one chunk of the first
    /// failure.
    fn is_set(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    fn set(&self, e: QueryError) {
        let mut slot = self.error.lock();
        if slot.is_none() {
            *slot = Some(e);
        }
        self.flag.store(true, Ordering::Release);
    }

    fn take(&self) -> Option<QueryError> {
        self.error.lock().take()
    }
}

/// Executes `plan` against `scores`, using up to `threads` worker threads.
///
/// Bit-identical for every `threads` value (see module docs); a plan that
/// does not fill one wave ([`runs_parallel`]) runs inline with no buffering
/// and no spawn.
pub fn run_plan(
    graph: &CsrGraph,
    alpha: f64,
    plan: &WalkPlan,
    threads: usize,
    scores: &mut [f64],
    cancel: &Cancel,
) -> Result<(), QueryError> {
    debug_assert_eq!(scores.len(), graph.num_nodes());
    if !runs_parallel(plan.total_walks, threads) {
        return run_serial(graph, alpha, &plan.chunks, scores, cancel);
    }
    run_parallel(graph, alpha, &plan.chunks, threads, WAVE_WALKS, scores, cancel)
}

fn run_serial(
    graph: &CsrGraph,
    alpha: f64,
    chunks: &[WalkChunk],
    scores: &mut [f64],
    cancel: &Cancel,
) -> Result<(), QueryError> {
    let ticker = SharedTicker::new(cancel);
    for ch in chunks {
        ticker.tick_n(ch.walks as u64)?;
        let mut walker = Walker::new(graph, alpha, ch.seed);
        walker.walk_and_credit(ch.node, ch.walks as u64, ch.credit, scores);
    }
    Ok(())
}

/// Splits `chunks` into waves in plan order, each with its walk count: a
/// wave takes chunks until it holds at least `budget` walks (only the last
/// may hold fewer) and always takes at least one, so it holds fewer than
/// `budget + CHECK_INTERVAL` walks.
fn waves(chunks: &[WalkChunk], budget: u64) -> impl Iterator<Item = (&[WalkChunk], u64)> {
    let mut rest = chunks;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let (mut end, mut walks) = (0, 0u64);
        while end < rest.len() && (end == 0 || walks < budget) {
            walks += rest[end].walks as u64;
            end += 1;
        }
        let (wave, tail) = rest.split_at(end);
        rest = tail;
        Some((wave, walks))
    })
}

/// Cuts a wave of `walks` walks into `parts` contiguous slices of about
/// equal walk count, each with its walk count: slice `j` ends at the first
/// chunk boundary at or past `⌈walks·(j+1)/parts⌉` walks. Slices may be
/// empty; slice 0 is not unless the wave is.
fn slices(wave: &[WalkChunk], walks: u64, parts: usize) -> Vec<(&[WalkChunk], usize)> {
    let mut out = Vec::with_capacity(parts);
    let (mut rest, mut done) = (wave, 0u64);
    for j in 1..=parts as u64 {
        let target = (walks * j).div_ceil(parts as u64);
        let (mut end, mut w) = (0, 0u64);
        while end < rest.len() && done + w < target {
            w += rest[end].walks as u64;
            end += 1;
        }
        let (slice, tail) = rest.split_at(end);
        out.push((slice, w as usize));
        rest = tail;
        done += w;
    }
    debug_assert!(rest.is_empty() && done == walks);
    out
}

/// Walks `chunks` in order, recording terminals into `out` (exactly their
/// walk count long). Stops at the next chunk boundary once `abort` is set.
fn walk_slice(
    graph: &CsrGraph,
    alpha: f64,
    chunks: &[WalkChunk],
    mut out: &mut [NodeId],
    ticker: &SharedTicker,
    abort: &Abort,
) {
    for ch in chunks {
        if abort.is_set() {
            return;
        }
        if let Err(e) = ticker.tick_n(ch.walks as u64) {
            abort.set(e);
            return;
        }
        let (buf, rest) = std::mem::take(&mut out).split_at_mut(ch.walks as usize);
        Walker::new(graph, alpha, ch.seed).walk_and_record(ch.node, buf);
        out = rest;
    }
}

/// The parallel path of [`run_plan`], with waves of `threads × wave_walks`
/// walks (tests shrink `wave_walks` to cross many wave boundaries cheaply).
fn run_parallel(
    graph: &CsrGraph,
    alpha: f64,
    chunks: &[WalkChunk],
    threads: usize,
    wave_walks: u64,
    scores: &mut [f64],
    cancel: &Cancel,
) -> Result<(), QueryError> {
    debug_assert!(threads >= 2);
    let ticker = SharedTicker::new(cancel);
    let abort = Abort::new();
    let mut terminals: Vec<NodeId> = Vec::new();
    for (wave, walks) in waves(chunks, threads as u64 * wave_walks) {
        // Exact growth keeps capacity at the largest wave, not double it.
        terminals.reserve_exact((walks as usize).saturating_sub(terminals.len()));
        terminals.resize(walks as usize, 0);
        // Slice j owns the next run of `terminals`, so the borrow checker
        // proves the workers' writes cannot alias.
        let mut rest = terminals.as_mut_slice();
        let mut parts = Vec::with_capacity(threads);
        for (slice, w) in slices(wave, walks, threads) {
            let (buf, tail) = std::mem::take(&mut rest).split_at_mut(w);
            parts.push((slice, buf));
            rest = tail;
        }
        let (ticker, abort) = (&ticker, &abort);
        crossbeam::scope(|scope| {
            let mut parts = parts.into_iter();
            let (own, own_buf) = parts.next().expect("threads >= 2");
            for (slice, buf) in parts.filter(|(slice, _)| !slice.is_empty()) {
                scope.spawn(move |_| walk_slice(graph, alpha, slice, buf, ticker, abort));
            }
            walk_slice(graph, alpha, own, own_buf, ticker, abort);
        })
        .expect("walk worker panicked");
        if let Some(e) = abort.take() {
            return Err(e);
        }
        // Reduce in plan order: the slices are contiguous runs of the plan
        // and of `terminals`, so this replays the exact f64 additions the
        // serial path performs, in the exact order it performs them.
        let mut at = 0;
        for ch in wave {
            let end = at + ch.walks as usize;
            for &t in &terminals[at..end] {
                scores[t as usize] += ch.credit;
            }
            at = end;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use resacc_graph::gen;

    fn demo_plan(seed: u64) -> WalkPlan {
        let mut plan = WalkPlan::new();
        // Mixed chunk sizes: sub-interval, exact-interval, multi-chunk.
        plan.push_node(0, 100, 0.001, seed);
        plan.push_node(3, CHECK_INTERVAL as u64, 0.0005, seed);
        plan.push_node(7, 3 * CHECK_INTERVAL as u64 + 17, 0.0002, seed);
        plan
    }

    #[test]
    fn chunk_seeds_are_distinct_and_deterministic() {
        let a = chunk_seed(1, 2, 3);
        assert_eq!(a, chunk_seed(1, 2, 3));
        assert_ne!(a, chunk_seed(2, 2, 3), "seed must matter");
        assert_ne!(a, chunk_seed(1, 3, 3), "node must matter");
        assert_ne!(a, chunk_seed(1, 2, 4), "chunk index must matter");
    }

    #[test]
    fn plan_splits_budgets_into_interval_chunks() {
        let mut plan = WalkPlan::new();
        plan.push_node(5, 2 * CHECK_INTERVAL as u64 + 1, 0.25, 9);
        assert_eq!(plan.total_walks, 2 * CHECK_INTERVAL as u64 + 1);
        assert_eq!(plan.chunks.len(), 3);
        assert_eq!(plan.chunks[0].walks, CHECK_INTERVAL);
        assert_eq!(plan.chunks[1].walks, CHECK_INTERVAL);
        assert_eq!(plan.chunks[2].walks, 1);
        // Per-node chunk indices restart at 0, but seeds stay distinct.
        assert_ne!(plan.chunks[0].seed, plan.chunks[1].seed);
        assert_eq!(plan.chunks[0].seed, chunk_seed(9, 5, 0));
    }

    /// Runs `plan` serially and on the parallel path (waves of
    /// `threads × wave_walks` walks, whatever the plan's size) and asserts
    /// the scores match bit for bit.
    fn assert_parallel_matches_serial(g: &CsrGraph, plan: &WalkPlan, threads: usize, wave_walks: u64) {
        let n = g.num_nodes();
        let mut serial = vec![0.0f64; n];
        run_serial(g, 0.2, &plan.chunks, &mut serial, &Cancel::never()).unwrap();
        let mut par = vec![0.0f64; n];
        run_parallel(g, 0.2, &plan.chunks, threads, wave_walks, &mut par, &Cancel::never())
            .unwrap();
        for (v, (a, b)) in serial.iter().zip(par.iter()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "threads={threads} wave_walks={wave_walks} node={v}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn serial_and_parallel_are_bitwise_identical() {
        let g = gen::barabasi_albert(200, 3, 4);
        let plan = demo_plan(0xDEC0DE);
        assert!(!runs_parallel(plan.total_walks, 2), "demo plan is below one wave");
        for threads in [2usize, 3, 4, 8] {
            // One wave, and many waves with boundaries inside node 7's chunks.
            for wave_walks in [WAVE_WALKS, 300] {
                assert_parallel_matches_serial(&g, &plan, threads, wave_walks);
            }
        }
    }

    #[test]
    fn plan_over_three_waves_matches_serial_through_run_plan() {
        let g = gen::barabasi_albert(300, 3, 5);
        let mut plan = WalkPlan::new();
        // 5000-walk nodes (four full chunks and a 904-walk tail) never align
        // with a wave boundary.
        for node in 0..30u32 {
            plan.push_node(node * 7 % 300, 5000, 1e-6 * (node + 1) as f64, 0xAB);
        }
        let threads = 2;
        let budget = threads as u64 * WAVE_WALKS;
        assert!(runs_parallel(plan.total_walks, threads));
        let waves: Vec<_> = waves(&plan.chunks, budget).collect();
        assert!(waves.len() >= 3, "{} waves", waves.len());
        let straddles = waves
            .windows(2)
            .any(|w| w[0].0.last().unwrap().node == w[1].0[0].node);
        assert!(straddles, "a multi-chunk node must straddle a wave boundary");

        let mut serial = vec![0.0f64; 300];
        run_plan(&g, 0.2, &plan, 1, &mut serial, &Cancel::never()).unwrap();
        let mut par = vec![0.0f64; 300];
        run_plan(&g, 0.2, &plan, threads, &mut par, &Cancel::never()).unwrap();
        for (v, (a, b)) in serial.iter().zip(par.iter()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "node={v}: {a} vs {b}");
        }
    }

    #[test]
    fn three_threads_get_uneven_slices_and_match_serial() {
        let g = gen::barabasi_albert(200, 3, 6);
        let mut plan = WalkPlan::new();
        for (node, walks) in [(1u32, 1u64), (2, 2), (5, 3 * 1024 + 5), (9, 1), (11, 700), (4, 2048)] {
            plan.push_node(node, walks, 0.001, 77);
        }
        let wave_walks = 1000;
        for (wave, walks) in waves(&plan.chunks, 3 * wave_walks) {
            let counts: Vec<usize> = slices(wave, walks, 3).iter().map(|s| s.1).collect();
            assert_eq!(counts.iter().sum::<usize>() as u64, walks);
            let (lo, hi) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            assert!(hi - lo < 2 * CHECK_INTERVAL as usize, "slices {counts:?}");
        }
        assert_parallel_matches_serial(&g, &plan, 3, wave_walks);
    }

    #[test]
    fn wave_with_fewer_chunks_than_threads_leaves_slices_empty() {
        let g = gen::barabasi_albert(100, 3, 7);
        let mut plan = WalkPlan::new();
        plan.push_node(3, 4 * CHECK_INTERVAL as u64, 0.002, 5);
        plan.push_node(8, 7, 0.003, 5);
        let (threads, wave_walks) = (4, CHECK_INTERVAL as u64);
        let waves: Vec<_> = waves(&plan.chunks, threads as u64 * wave_walks).collect();
        assert_eq!(waves.len(), 2);
        let last = slices(waves[1].0, waves[1].1, threads);
        assert_eq!(last[0].0.len(), 1, "slice 0 takes the lone chunk");
        assert!(last[1..].iter().all(|s| s.0.is_empty() && s.1 == 0));
        assert_parallel_matches_serial(&g, &plan, threads, wave_walks);
    }

    #[test]
    fn waves_and_slices_tile_the_plan() {
        let mut plan = WalkPlan::new();
        for node in 0..400u32 {
            // Budgets from 1 walk to several chunks, as ResAcc plans mix.
            plan.push_node(node, 1 + (node as u64 * 389) % 3000, 0.5, 1);
        }
        for threads in [2usize, 3, 8] {
            let budget = threads as u64 * WAVE_WALKS;
            let mut at = 0;
            let all: Vec<_> = waves(&plan.chunks, budget).collect();
            for (i, &(wave, walks)) in all.iter().enumerate() {
                assert!(!wave.is_empty());
                assert!(std::ptr::eq(&wave[0], &plan.chunks[at]), "waves must be contiguous");
                assert_eq!(walks, wave.iter().map(|c| c.walks as u64).sum::<u64>());
                assert!(walks <= budget + CHECK_INTERVAL as u64, "wave {i}: {walks} walks");
                if i + 1 < all.len() {
                    assert!(walks >= budget, "only the last wave may be short");
                }
                let mut inner = at;
                for (slice, w) in slices(wave, walks, threads) {
                    if let Some(first) = slice.first() {
                        assert!(std::ptr::eq(first, &plan.chunks[inner]));
                    }
                    assert_eq!(w as u64, slice.iter().map(|c| c.walks as u64).sum::<u64>());
                    inner += slice.len();
                }
                at += wave.len();
                assert_eq!(inner, at, "slices must tile their wave");
            }
            assert_eq!(at, plan.chunks.len(), "waves must tile the plan");
        }
    }

    #[test]
    fn serial_threshold_is_one_wave() {
        assert!(!runs_parallel(u64::MAX, 1));
        assert!(!runs_parallel(2 * WAVE_WALKS - 1, 2));
        assert!(runs_parallel(2 * WAVE_WALKS, 2));
        assert!(!runs_parallel(7 * WAVE_WALKS, 8));
    }

    #[test]
    fn mass_is_exactly_credit_times_walks() {
        let g = gen::cycle(40);
        let mut plan = WalkPlan::new();
        plan.push_node(0, 5000, 1.0 / 5000.0, 3);
        let mut scores = vec![0.0f64; 40];
        run_parallel(&g, 0.2, &plan.chunks, 4, 512, &mut scores, &Cancel::never()).unwrap();
        let sum: f64 = scores.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
    }

    #[test]
    fn expired_deadline_aborts_parallel_run() {
        let g = gen::barabasi_albert(300, 4, 1);
        let mut plan = WalkPlan::new();
        for node in 0..50u32 {
            plan.push_node(node, 4 * CHECK_INTERVAL as u64, 1e-6, 11);
        }
        assert!(runs_parallel(plan.total_walks, 4), "plan must fill a wave");
        let expired = Cancel::at(std::time::Instant::now() - std::time::Duration::from_millis(1));
        let mut scores = vec![0.0f64; 300];
        let err = run_plan(&g, 0.2, &plan, 4, &mut scores, &expired).unwrap_err();
        assert_eq!(err, QueryError::DeadlineExceeded);
    }

    #[test]
    fn manual_cancel_aborts_serial_run() {
        let g = gen::cycle(10);
        let mut plan = WalkPlan::new();
        plan.push_node(0, 100 * CHECK_INTERVAL as u64, 1e-9, 1);
        let token = Cancel::manual();
        token.cancel();
        let mut scores = vec![0.0f64; 10];
        let err = run_plan(&g, 0.2, &plan, 1, &mut scores, &token).unwrap_err();
        assert_eq!(err, QueryError::Cancelled);
    }

    #[test]
    fn empty_plan_is_a_noop() {
        let g = gen::cycle(5);
        let mut scores = vec![0.0f64; 5];
        run_plan(&g, 0.2, &WalkPlan::new(), 8, &mut scores, &Cancel::never()).unwrap();
        assert!(scores.iter().all(|&s| s == 0.0));
    }
}
