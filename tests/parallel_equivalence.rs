//! Property-based tests for the deterministic intra-query parallelism
//! contract (`DESIGN.md` §10): on random Erdős–Rényi and Barabási–Albert
//! graphs, the remedy phase and full ResAcc queries are **bit-identical**
//! at every thread count, and a query cancelled mid-remedy leaves its
//! workspace reusable — the next query is unaffected.
//!
//! The contract these tests pin down: per-node walk budgets are split into
//! fixed `CHECK_INTERVAL`-sized chunks, each chunk's RNG stream is derived
//! independently (`chunk_seed(seed, node, chunk_idx)`), and the reduction
//! replays chunk results in plan order — so the f64 addition sequence, and
//! therefore every output byte, is the same whether chunks ran on 1 thread
//! or 8.

use proptest::prelude::*;
use resacc::monte_carlo::{monte_carlo_with_walks_guarded, remedy_parallel};
use resacc::par::{runs_parallel, WAVE_WALKS};
use resacc::resacc::{h_hop_fwd, omfwd, ResAcc, ResAccConfig, Scope};
use resacc::{Cancel, ForwardState, QueryError, RwrParams, RwrSession};
use resacc_graph::{gen, CsrGraph};
use std::time::{Duration, Instant};

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

/// Strategy: a random ER or BA graph (both families from the paper's
/// evaluation: flat vs heavy-tailed degree distributions).
fn arb_er_or_ba_graph() -> impl Strategy<Value = CsrGraph> {
    (0usize..2, 4usize..50, 0usize..4, 0u64..1_000_000).prop_map(|(family, n, d, seed)| {
        match family {
            0 => gen::erdos_renyi(n, n * d, seed),
            _ => gen::barabasi_albert(n, d.max(1), seed),
        }
    })
}

fn arb_graph_and_source() -> impl Strategy<Value = (CsrGraph, u32)> {
    arb_er_or_ba_graph().prop_flat_map(|g| {
        let n = g.num_nodes() as u32;
        (Just(g), 0..n)
    })
}

/// Runs the push phases once, leaving `state` holding the residues the
/// remedy phase consumes (which it only reads — `&ForwardState`).
fn push_phases(g: &CsrGraph, s: u32, state: &mut ForwardState) {
    let out = h_hop_fwd(g, s, 0.2, 1e-4, Scope::HopLimited(2), true, state);
    omfwd(g, 0.2, 1e-5, &out.boundary, state);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Remedy at 2/4/8 threads is byte-for-byte the serial remedy, and the
    /// walk budget never depends on the thread count.
    #[test]
    fn remedy_is_bitwise_identical_across_threads(
        (g, s) in arb_graph_and_source(),
        seed in 0u64..1_000_000,
        walk_scale in 0.25f64..4.0,
    ) {
        let params = RwrParams::new(0.2, 0.5, 0.05, 0.05);
        let mut state = ForwardState::new(g.num_nodes());
        push_phases(&g, s, &mut state);

        let mut serial = state.scores();
        let serial_walks = remedy_parallel(
            &g, &state, &params, walk_scale, seed, 1, &mut serial, &Cancel::never(),
        ).unwrap();

        for threads in THREAD_COUNTS {
            let mut par = state.scores();
            let walks = remedy_parallel(
                &g, &state, &params, walk_scale, seed, threads, &mut par, &Cancel::never(),
            ).unwrap();
            prop_assert_eq!(walks, serial_walks, "walk budget changed at {} threads", threads);
            for (t, (a, b)) in serial.iter().zip(&par).enumerate() {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "scores[{}] differs at {} threads", t, threads
                );
            }
        }
    }

    /// Full ResAcc queries (all three phases) are bit-identical at every
    /// thread count — `threads` is a pure latency knob.
    #[test]
    fn full_query_is_bitwise_identical_across_threads(
        (g, s) in arb_graph_and_source(),
        seed in 0u64..1_000_000,
    ) {
        let params = RwrParams::new(0.2, 0.5, 0.05, 0.05);
        let serial = ResAcc::new(ResAccConfig::default()).query(&g, s, &params, seed);
        for threads in THREAD_COUNTS {
            let par = ResAcc::new(ResAccConfig::default().with_threads(threads))
                .query(&g, s, &params, seed);
            prop_assert_eq!(par.walks, serial.walks);
            for (t, (a, b)) in serial.scores.iter().zip(&par.scores).enumerate() {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "scores[{}] differs at {} threads", t, threads
                );
            }
        }
    }

    /// The pure-MC baseline obeys the same contract.
    #[test]
    fn mc_baseline_is_bitwise_identical_across_threads(
        (g, s) in arb_graph_and_source(),
        seed in 0u64..1_000_000,
        n_walks in 0u64..5000,
    ) {
        let serial = monte_carlo_with_walks_guarded(&g, s, 0.2, n_walks, seed, 1, &Cancel::never())
            .unwrap();
        for threads in THREAD_COUNTS {
            let par = monte_carlo_with_walks_guarded(&g, s, 0.2, n_walks, seed, threads, &Cancel::never())
                .unwrap();
            for (t, (a, b)) in serial.scores.iter().zip(&par.scores).enumerate() {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "scores[{}] differs at {} threads", t, threads
                );
            }
        }
    }

    /// A remedy run aborted mid-phase (expired deadline fires at the first
    /// interval boundary inside the walk loop) reports a typed error,
    /// leaves the push-phase workspace untouched, and a retry on the same
    /// workspace is bit-identical to a run that never saw the abort.
    #[test]
    fn cancelled_remedy_leaves_workspace_reusable(
        (g, s) in arb_graph_and_source(),
        seed in 0u64..1_000_000,
        threads in 1usize..8,
    ) {
        let params = RwrParams::new(0.2, 0.5, 0.05, 0.05);
        let mut state = ForwardState::new(g.num_nodes());
        push_phases(&g, s, &mut state);
        let residue_sum = state.residue_sum();

        // Reference: an undisturbed serial remedy on a copy of the scores.
        let mut reference = state.scores();
        let ref_walks = remedy_parallel(
            &g, &state, &params, 1.0, seed, 1, &mut reference, &Cancel::never(),
        ).unwrap();

        // Aborted attempt: the deadline is already expired, so the walk
        // loop (serial ticker or shared ticker alike) aborts at its first
        // real check. Partial scores are discarded by dropping `aborted`.
        let expired = Cancel::at(Instant::now() - Duration::from_secs(1));
        let mut aborted = state.scores();
        let err = remedy_parallel(
            &g, &state, &params, 1.0, seed, threads, &mut aborted, &expired,
        );
        // Tiny plans (< CHECK_INTERVAL walks) may finish before any check;
        // when the abort does fire it must be the typed deadline error.
        if let Err(e) = err {
            prop_assert_eq!(e, QueryError::DeadlineExceeded);
        }

        // The workspace is untouched: same residues, and a retry is
        // bit-identical to the undisturbed reference.
        prop_assert_eq!(state.residue_sum().to_bits(), residue_sum.to_bits());
        let mut retry = state.scores();
        let retry_walks = remedy_parallel(
            &g, &state, &params, 1.0, seed, threads, &mut retry, &Cancel::never(),
        ).unwrap();
        prop_assert_eq!(retry_walks, ref_walks);
        for (t, (a, b)) in reference.iter().zip(&retry).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "scores[{}] differs after abort", t);
        }
    }
}

/// The `walk_scale` that gives a remedy over `residue_sum` at least
/// `9 × WAVE_WALKS` walks: each node's budget is `⌈r·c·scale⌉ ≥ r·c·scale`.
fn scale_for_parallel_plan(params: &RwrParams, residue_sum: f64) -> f64 {
    9.0 * WAVE_WALKS as f64 / (residue_sum * params.walk_coefficient())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The properties above use graphs small enough that every plan runs
    /// serially (below one wave of `threads × WAVE_WALKS` walks). Here
    /// `walk_scale` is raised until the remedy plan exceeds
    /// `8 × WAVE_WALKS` walks, so 2, 4 and 8 threads all take the parallel
    /// path, and its bits must still be the serial bits.
    #[test]
    fn parallel_path_is_bitwise_identical_above_one_wave(
        n in 200usize..600,
        d in 2usize..5,
        graph_seed in 0u64..1_000_000,
        source in 0u32..200,
        seed in 0u64..1_000_000,
    ) {
        let g = gen::barabasi_albert(n, d, graph_seed);
        let params = RwrParams::new(0.2, 0.5, 0.05, 0.05);

        let mut state = ForwardState::new(g.num_nodes());
        push_phases(&g, source, &mut state);
        prop_assert!(state.residue_sum() > 0.0);
        let walk_scale = scale_for_parallel_plan(&params, state.residue_sum());
        let mut serial = state.scores();
        let walks = remedy_parallel(
            &g, &state, &params, walk_scale, seed, 1, &mut serial, &Cancel::never(),
        ).unwrap();
        prop_assert!(walks > 8 * WAVE_WALKS, "remedy plan has only {} walks", walks);
        for threads in THREAD_COUNTS {
            prop_assert!(runs_parallel(walks, threads));
            let mut par = state.scores();
            remedy_parallel(
                &g, &state, &params, walk_scale, seed, threads, &mut par, &Cancel::never(),
            ).unwrap();
            for (t, (a, b)) in serial.iter().zip(&par).enumerate() {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "remedy scores[{}] differs at {} threads", t, threads
                );
            }
        }

        // Full queries: the residue entering the remedy does not depend on
        // `walk_scale`, so one cheap query sizes the heavy ones.
        let probe = ResAcc::new(ResAccConfig::default()).query(&g, source, &params, seed);
        prop_assert!(probe.residue_sum_final > 0.0);
        let config = ResAccConfig {
            walk_scale: scale_for_parallel_plan(&params, probe.residue_sum_final),
            ..ResAccConfig::default()
        };
        let serial = ResAcc::new(config).query(&g, source, &params, seed);
        prop_assert!(serial.walks > 8 * WAVE_WALKS, "query plan has only {} walks", serial.walks);
        for threads in THREAD_COUNTS {
            prop_assert!(runs_parallel(serial.walks, threads));
            let par = ResAcc::new(config.with_threads(threads)).query(&g, source, &params, seed);
            prop_assert_eq!(par.walks, serial.walks);
            for (t, (a, b)) in serial.scores.iter().zip(&par.scores).enumerate() {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "query scores[{}] differs at {} threads", t, threads
                );
            }
        }
    }
}

/// Session-level version of the cancellation property: a query aborted by
/// an expired deadline resets its pooled workspace, and the *next* query
/// through the session is bit-identical to one on a session that never saw
/// the abort.
#[test]
fn session_query_after_cancelled_query_is_unaffected() {
    let g = gen::barabasi_albert(300, 3, 0xC0FFEE);
    let params = RwrParams::new(0.2, 0.5, 0.05, 0.05);

    let disturbed = RwrSession::with_config(
        gen::barabasi_albert(300, 3, 0xC0FFEE),
        params,
        ResAccConfig::default().with_threads(4),
    );
    let expired = Cancel::at(Instant::now() - Duration::from_secs(1));
    let err = disturbed
        .try_query_versioned(7, 99, &expired)
        .expect_err("expired deadline must abort");
    assert_eq!(err, QueryError::DeadlineExceeded);

    let pristine = RwrSession::with_config(g, params, ResAccConfig::default());
    let (a, _) = disturbed
        .try_query_versioned(7, 99, &Cancel::never())
        .expect("clean query after abort");
    let (b, _) = pristine
        .try_query_versioned(7, 99, &Cancel::never())
        .expect("clean query on pristine session");
    assert_eq!(a.walks, b.walks);
    for (t, (x, y)) in a.scores.iter().zip(&b.scores).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "scores[{t}]: cancelled query disturbed the session"
        );
    }
}
