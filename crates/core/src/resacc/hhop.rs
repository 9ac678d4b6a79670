//! h-HopFWD — hop-limited forward search with source-residue accumulation
//! (paper Algorithm 3, Section IV).
//!
//! ## The looping phenomenon (Section IV-A)
//!
//! Plain Forward Search pushes the source first, and later — once residue
//! flows back through a cycle — pushes it again, replaying the same push
//! ordering scaled by the returned residue `r₁(s,s)` (paper Figure 3). Each
//! replay is redundant work.
//!
//! ## The fix
//!
//! h-HopFWD performs *one* accumulating phase: it pushes the source once,
//! then pushes only non-source nodes inside the `h`-hop set until none
//! satisfies the push condition, letting the source's residue accumulate to
//! `r₁ = r₁(s,s)`. By Lemma 2 the phases that plain Forward Search would
//! run are identical up to the scale factor `r₁^{i−1}`, so the *updating
//! phase* applies all `T` of them in closed form:
//!
//! * `T = ⌈ln(r_max·d_out(s)) / ln r₁⌉` — phases until the source no longer
//!   satisfies the push condition,
//! * `S = Σ_{i=1..T} r₁^{i−1} = (1 − r₁^T)/(1 − r₁)` — the geometric scaler
//!   applied to every reserve and non-source residue,
//! * the source's residue becomes `r₁^T`.
//!
//! > **Paper erratum:** Algorithm 3 line 10 prints the scaler as
//! > `(1 − r₁^{T−1})/(1 − r₁)`, but its own Appendix Q derives
//! > `S = Σ_{i=1..T} r₁^{i−1}`, whose closed form is `(1 − r₁^T)/(1 − r₁)`.
//! > Only the latter preserves the mass invariant
//! > `Σπ^f + Σr^f = S·(1 − r₁) + r₁^T = 1`; we implement it and property-
//! > test the invariant.
//!
//! Residues pushed across the hop boundary accumulate (un-pushed) on the
//! `(h+1)`-hop layer `L_{(h+1)-hop}(s)` — deliberately large values that the
//! OMFWD phase then settles cheaply (Section V).

use crate::cancel::{Cancel, QueryError};
use crate::forward_push::{push_at, satisfies_push_condition};
use crate::state::{ForwardState, PushQueue};
use resacc_graph::{CsrGraph, HopLayers, NodeId};

/// Where the accumulating phase is allowed to push.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Push only inside `V_{h-hop}(s)` (the paper's h-HopFWD).
    HopLimited(usize),
    /// Push anywhere (the paper's `No-SG-ResAcc` ablation, Appendix K).
    WholeGraph,
}

/// Outcome of the h-HopFWD phase.
#[derive(Clone, Debug)]
pub struct HhopOutcome {
    /// `L_{(h+1)-hop}(s)` — seeds for OMFWD (empty under
    /// [`Scope::WholeGraph`]).
    pub boundary: Vec<NodeId>,
    /// The accumulated source residue `r₁(s,s)` after the single
    /// accumulating phase (before the updating phase).
    pub r1: f64,
    /// Number of accumulating phases the updating phase applied (`T`).
    pub loops: u32,
    /// The geometric scaler `S`.
    pub scaler: f64,
    /// Push operations performed.
    pub pushes: u64,
    /// `|V_{h-hop}(s)|` (or `n` under [`Scope::WholeGraph`]).
    pub hop_set_size: usize,
}

/// Runs h-HopFWD from `source`, leaving reserves/residues in `state`
/// (which is reset first).
///
/// `use_loop = false` disables the accumulation/updating trick and runs
/// plain Forward Search restricted to the scope instead (the paper's
/// `No-Loop-ResAcc` ablation).
pub fn h_hop_fwd(
    graph: &CsrGraph,
    source: NodeId,
    alpha: f64,
    r_max_hop: f64,
    scope: Scope,
    use_loop: bool,
    state: &mut ForwardState,
) -> HhopOutcome {
    h_hop_fwd_cancellable(
        graph,
        source,
        alpha,
        r_max_hop,
        scope,
        use_loop,
        state,
        &Cancel::never(),
    )
    .expect("never-cancel token cannot abort")
}

/// [`h_hop_fwd`] with cooperative cancellation: the push loop checks
/// `cancel` every [`crate::cancel::CHECK_INTERVAL`] pushes and aborts with
/// the typed reason, leaving `state` in an unspecified (but resettable)
/// condition.
#[allow(clippy::too_many_arguments)]
pub fn h_hop_fwd_cancellable(
    graph: &CsrGraph,
    source: NodeId,
    alpha: f64,
    r_max_hop: f64,
    scope: Scope,
    use_loop: bool,
    state: &mut ForwardState,
    cancel: &Cancel,
) -> Result<HhopOutcome, QueryError> {
    assert!(alpha > 0.0 && alpha < 1.0);
    assert!(r_max_hop > 0.0);
    let n = graph.num_nodes();
    assert!((source as usize) < n);

    let layers = match scope {
        Scope::HopLimited(h) => Some(HopLayers::compute(graph, source, h)),
        Scope::WholeGraph => None,
    };
    let in_scope = |v: NodeId| match &layers {
        Some(l) => l.in_hop_set(v),
        None => true,
    };

    state.init_source(source);
    let mut pushes: u64 = 0;
    let mut ticker = cancel.ticker();

    // Line 2: the single initial push at the source.
    push_at(graph, state, source, alpha);
    pushes += 1;

    // Lines 3–7: accumulating phase — push every in-scope non-source node
    // satisfying the push condition. Under `use_loop == false` the source is
    // pushed like any other node (plain Forward Search).
    let consider = |v: NodeId, state: &ForwardState, queue: &mut PushQueue| {
        if (use_loop && v == source) || !in_scope(v) || queue.contains(v) {
            return;
        }
        if satisfies_push_condition(graph, state, v, r_max_hop) {
            queue.push(v);
        }
    };
    state.with_queue(|state, queue| {
        for &v in graph.out_neighbors(source) {
            consider(v, state, queue);
        }
        while let Some(t) = queue.pop() {
            if !satisfies_push_condition(graph, state, t, r_max_hop) {
                continue;
            }
            push_at(graph, state, t, alpha);
            pushes += 1;
            ticker.tick()?;
            for &v in graph.out_neighbors(t) {
                consider(v, state, queue);
            }
        }
        Ok(())
    })?;

    // Lines 8–18: updating phase.
    let r1 = state.residue(source);
    let d_s = graph.out_degree(source).max(1) as f64;
    let (loops, scaler) = if !use_loop || r1 <= 0.0 {
        (1, 1.0)
    } else if r1 / d_s < r_max_hop {
        // The accumulated residue no longer satisfies the push condition:
        // plain Forward Search would also have stopped here. T = 1, S = 1.
        (1, 1.0)
    } else {
        let cond = r_max_hop * d_s;
        debug_assert!(r1 < 1.0, "source residue cannot reach 1 after a push");
        let t_exact = cond.ln() / r1.ln();
        let t = t_exact.ceil().clamp(1.0, 1e6) as u32;
        let s = (1.0 - r1.powi(t as i32)) / (1.0 - r1);
        (t, s)
    };

    if scaler != 1.0 {
        // Every touched node is inside the hop set or on the boundary;
        // scale them all, with the source's residue set to r₁^T.
        for &v in state.touched().to_vec().iter() {
            state.scale_reserve(v, scaler);
            if v == source {
                state.set_residue(v, r1.powi(loops as i32));
            } else {
                state.scale_residue(v, scaler);
            }
        }
    }

    let (boundary, hop_set_size) = match &layers {
        Some(l) => (l.boundary().to_vec(), l.hop_set_len()),
        None => (Vec::new(), n),
    };
    Ok(HhopOutcome {
        boundary,
        r1,
        loops,
        scaler,
        pushes,
        hop_set_size,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use resacc_graph::gen;

    fn run(
        graph: &CsrGraph,
        source: NodeId,
        r_max_hop: f64,
        scope: Scope,
        use_loop: bool,
    ) -> (ForwardState, HhopOutcome) {
        let mut st = ForwardState::new(graph.num_nodes());
        let out = h_hop_fwd(graph, source, 0.2, r_max_hop, scope, use_loop, &mut st);
        (st, out)
    }

    #[test]
    fn mass_invariant_holds_exactly() {
        for g in [
            gen::cycle(10),
            gen::barabasi_albert(300, 3, 1),
            gen::erdos_renyi(200, 1200, 2),
        ] {
            let (st, out) = run(&g, 0, 1e-8, Scope::HopLimited(2), true);
            assert!(
                (st.mass() - 1.0).abs() < 1e-9,
                "mass {} (S={}, T={})",
                st.mass(),
                out.scaler,
                out.loops
            );
        }
    }

    #[test]
    fn figure3_accumulation_matches_paper() {
        // Paper Figure 3: 3-cycle s→v1→v2→s, α = 0.2, after pushes at
        // s, v1, v2 the residues are (0.512, 0, 0) and reserves
        // (0.2, 0.16, 0.128).
        let g = gen::cycle(3);
        let (st, out) = run(&g, 0, 0.6, Scope::HopLimited(2), true);
        // With r_max_hop = 0.6 only the first cycle of pushes happens (the
        // returning residue 0.512 < 0.6 fails the scaled condition so T=1).
        assert!((out.r1 - 0.512).abs() < 1e-12);
        assert_eq!(out.loops, 1);
        assert!((st.residue(0) - 0.512).abs() < 1e-12);
        assert!((st.reserve(0) - 0.2).abs() < 1e-12);
        assert!((st.reserve(1) - 0.16).abs() < 1e-12);
        assert!((st.reserve(2) - 0.128).abs() < 1e-12);
    }

    #[test]
    fn updating_phase_matches_explicit_replay() {
        // With a threshold low enough to trigger T > 1 loops, the closed
        // form must equal explicitly replaying the accumulating phases.
        let g = gen::cycle(3);
        let r_max = 0.05;
        let (st, out) = run(&g, 0, r_max, Scope::HopLimited(2), true);
        assert!(out.loops > 1, "expected multiple loops, got {}", out.loops);

        // Explicit replay: run accumulating phases one by one.
        let alpha = 0.2;
        let mut reserve = [0.0f64; 3];
        let mut residue = [0.0f64; 3];
        residue[0] = 1.0;
        for _ in 0..out.loops {
            // Push s once, then v1, v2 (the deterministic cycle order).
            for v in [0usize, 1, 2] {
                let r = residue[v];
                reserve[v] += alpha * r;
                residue[(v + 1) % 3] += (1.0 - alpha) * r;
                residue[v] = 0.0;
            }
        }
        for v in 0..3u32 {
            assert!(
                (st.reserve(v) - reserve[v as usize]).abs() < 1e-12,
                "reserve {v}: {} vs {}",
                st.reserve(v),
                reserve[v as usize]
            );
            assert!(
                (st.residue(v) - residue[v as usize]).abs() < 1e-12,
                "residue {v}: {} vs {}",
                st.residue(v),
                residue[v as usize]
            );
        }
    }

    #[test]
    fn source_residue_below_condition_after_update() {
        // Lemma 3: r^f(s,s) < r_max_hop·d_out(s) after the updating phase.
        let g = gen::cycle(4);
        for r_max in [0.3, 0.1, 0.01, 1e-4] {
            let (st, _) = run(&g, 0, r_max, Scope::HopLimited(3), true);
            assert!(
                st.residue(0) < r_max * g.out_degree(0) as f64,
                "r_max {r_max}: residue {}",
                st.residue(0)
            );
        }
    }

    #[test]
    fn boundary_accumulates_residue() {
        // Path 0→1→2→3 with h = 1: node 2 is the boundary; its residue
        // accumulates and is never pushed.
        let g = gen::path(4);
        let (st, out) = run(&g, 0, 1e-9, Scope::HopLimited(1), true);
        assert_eq!(out.boundary, vec![2]);
        assert!((st.residue(2) - 0.64).abs() < 1e-12);
        assert_eq!(st.reserve(2), 0.0);
        assert_eq!(st.residue(3), 0.0); // beyond boundary: untouched
    }

    #[test]
    fn no_loop_matches_plain_forward_search_fixpoint() {
        // With use_loop = false on the whole graph, h-HopFWD degenerates to
        // plain Forward Search: no node may satisfy the push condition.
        let g = gen::barabasi_albert(200, 3, 4);
        let r_max = 1e-6;
        let (st, _) = run(&g, 0, r_max, Scope::WholeGraph, false);
        for v in g.nodes() {
            assert!(!satisfies_push_condition(&g, &st, v, r_max));
        }
        assert!((st.mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn whole_graph_scope_has_empty_boundary() {
        let g = gen::cycle(6);
        let (_, out) = run(&g, 0, 1e-6, Scope::WholeGraph, true);
        assert!(out.boundary.is_empty());
        assert_eq!(out.hop_set_size, 6);
    }

    #[test]
    fn dead_end_source_trivial() {
        let g = gen::path(3);
        let (st, out) = run(&g, 2, 1e-6, Scope::HopLimited(2), true);
        assert_eq!(st.reserve(2), 1.0);
        assert_eq!(out.r1, 0.0);
        assert_eq!(out.loops, 1);
    }

    #[test]
    fn no_cycle_means_no_accumulation() {
        let g = gen::path(5);
        let (_, out) = run(&g, 0, 1e-9, Scope::HopLimited(3), true);
        assert_eq!(out.r1, 0.0);
        assert_eq!(out.scaler, 1.0);
    }

    #[test]
    fn loop_strategy_beats_plain_on_push_count() {
        // The entire point of h-HopFWD: fewer pushes than plain Forward
        // Search at the same threshold on a cyclic graph.
        let g = gen::cycle(8);
        let r_max = 1e-8;
        let (_, with_loop) = run(&g, 0, r_max, Scope::HopLimited(8), true);
        let (_, without) = run(&g, 0, r_max, Scope::WholeGraph, false);
        assert!(
            with_loop.pushes < without.pushes,
            "loop {} vs plain {}",
            with_loop.pushes,
            without.pushes
        );
    }

    #[test]
    fn reserves_scale_consistently_with_exact() {
        // h-HopFWD reserves must never exceed the true π (they're settled
        // probability mass).
        let g = gen::erdos_renyi(80, 500, 6);
        let exact = crate::exact::exact_rwr(&g, 0, 0.2);
        let (st, _) = run(&g, 0, 1e-10, Scope::HopLimited(2), true);
        for v in g.nodes() {
            assert!(
                st.reserve(v) <= exact[v as usize] + 1e-9,
                "node {v}: reserve {} exceeds exact {}",
                st.reserve(v),
                exact[v as usize]
            );
        }
    }
}
