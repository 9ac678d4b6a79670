//! OMFWD — "one-more forward search" (paper Algorithm 4, Section V).
//!
//! h-HopFWD leaves the `(h+1)`-hop layer with deliberately *large*
//! accumulated residues (those nodes receive pushes from the whole last
//! layer of the subgraph but never push themselves). OMFWD settles them:
//! it seeds a queue with `L_{(h+1)-hop}(s)` in decreasing residue order and
//! runs recursive forward pushes with a fresh threshold `r_max^f`,
//! shrinking the total residue `r_sum` — and therefore the number of remedy
//! walks — by orders of magnitude.

use crate::cancel::{Cancel, QueryError};
use crate::forward_push::{push_at, satisfies_push_condition, PushStats};
use crate::state::ForwardState;
use resacc_graph::{CsrGraph, NodeId};

/// Runs OMFWD over `state`.
///
/// `boundary` is `L_{(h+1)-hop}(s)` from h-HopFWD. Faithful to Algorithm 4,
/// every boundary node with positive residue is pushed at least once
/// (unconditionally); pushes then propagate to any node that meets the
/// `r_max_f` push condition. As a robustness extension beyond the paper's
/// pseudocode, nodes *inside* the hop set that still meet the `r_max_f`
/// condition (possible when `r_max_f < r_max_hop`, an unusual but legal
/// configuration) are seeded too, so the exit guarantee — no node satisfies
/// the push condition — holds for every parameter combination.
pub fn omfwd(
    graph: &CsrGraph,
    alpha: f64,
    r_max_f: f64,
    boundary: &[NodeId],
    state: &mut ForwardState,
) -> PushStats {
    omfwd_cancellable(graph, alpha, r_max_f, boundary, state, &Cancel::never())
        .expect("never-cancel token cannot abort")
}

/// [`omfwd`] with cooperative cancellation: checks `cancel` every
/// [`crate::cancel::CHECK_INTERVAL`] pushes and aborts with the typed error.
pub fn omfwd_cancellable(
    graph: &CsrGraph,
    alpha: f64,
    r_max_f: f64,
    boundary: &[NodeId],
    state: &mut ForwardState,
    cancel: &Cancel,
) -> Result<PushStats, QueryError> {
    assert!(alpha > 0.0 && alpha < 1.0);
    assert!(r_max_f > 0.0);
    state.with_queue(|state, queue| {
        let mut stats = PushStats::default();
        // Line 1: enqueue the boundary in decreasing residue order.
        let mut seeds: Vec<NodeId> = boundary
            .iter()
            .copied()
            .filter(|&v| state.residue(v) > 0.0)
            .collect();
        seeds.sort_by(|&a, &b| {
            state
                .residue(b)
                .partial_cmp(&state.residue(a))
                .expect("residues are finite")
        });
        for v in seeds {
            queue.push(v);
        }
        // Robustness seeds (see doc comment): anything already above threshold.
        for &v in state.touched() {
            if !queue.contains(v) && satisfies_push_condition(graph, state, v, r_max_f) {
                queue.push(v);
            }
        }

        // Lines 2–9.
        let mut ticker = cancel.ticker();
        while let Some(t) = queue.pop() {
            if state.residue(t) <= 0.0 {
                continue;
            }
            stats.pushes += 1;
            ticker.tick()?;
            stats.edge_updates += push_at(graph, state, t, alpha);
            for &v in graph.out_neighbors(t) {
                if !queue.contains(v) && satisfies_push_condition(graph, state, v, r_max_f) {
                    queue.push(v);
                }
            }
        }
        Ok(stats)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resacc::hhop::{h_hop_fwd, Scope};
    use resacc_graph::gen;

    fn after_hhop(
        graph: &CsrGraph,
        source: NodeId,
        h: usize,
        r_max_hop: f64,
    ) -> (ForwardState, Vec<NodeId>) {
        let mut st = ForwardState::new(graph.num_nodes());
        let out = h_hop_fwd(
            graph,
            source,
            0.2,
            r_max_hop,
            Scope::HopLimited(h),
            true,
            &mut st,
        );
        (st, out.boundary)
    }

    #[test]
    fn reduces_residue_sum() {
        let g = gen::barabasi_albert(500, 4, 3);
        let (mut st, boundary) = after_hhop(&g, 0, 2, 1e-9);
        let before = st.residue_sum();
        omfwd(&g, 0.2, 1e-5, &boundary, &mut st);
        let after = st.residue_sum();
        assert!(after < before, "residue sum {before} -> {after}");
        assert!((st.mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn exit_guarantee_no_pushable_nodes() {
        let g = gen::erdos_renyi(300, 2000, 5);
        let r_max_f = 1e-6;
        let (mut st, boundary) = after_hhop(&g, 0, 2, 1e-9);
        omfwd(&g, 0.2, r_max_f, &boundary, &mut st);
        for v in g.nodes() {
            assert!(
                !satisfies_push_condition(&g, &st, v, r_max_f),
                "node {v} still pushable"
            );
        }
    }

    #[test]
    fn boundary_nodes_pushed_even_below_threshold() {
        // Path 0→1→2→3, h = 1: boundary = {2} with residue 0.64. A very
        // large r_max_f would not let 2 qualify, but Algorithm 4 pushes
        // boundary seeds unconditionally.
        let g = gen::path(4);
        let (mut st, boundary) = after_hhop(&g, 0, 1, 1e-9);
        assert_eq!(boundary, vec![2]);
        omfwd(&g, 0.2, 10.0, &boundary, &mut st);
        assert_eq!(st.residue(2), 0.0);
        assert!((st.reserve(2) - 0.2 * 0.64).abs() < 1e-12);
        assert!((st.residue(3) - 0.8 * 0.64).abs() < 1e-12);
    }

    #[test]
    fn empty_boundary_is_noop_when_converged() {
        let g = gen::cycle(5);
        let (mut st, _) = after_hhop(&g, 0, 5, 1e-9);
        let before_mass = st.mass();
        let stats = omfwd(&g, 0.2, 1.0, &[], &mut st);
        assert_eq!(stats.pushes, 0);
        assert!((st.mass() - before_mass).abs() < 1e-15);
    }

    #[test]
    fn robustness_seeding_handles_inverted_thresholds() {
        // r_max_f smaller than r_max_hop: hop-set nodes may still satisfy
        // the finer threshold; the exit guarantee must hold regardless.
        let g = gen::barabasi_albert(200, 3, 8);
        let (mut st, boundary) = after_hhop(&g, 0, 2, 1e-3);
        let r_max_f = 1e-7;
        omfwd(&g, 0.2, r_max_f, &boundary, &mut st);
        for v in g.nodes() {
            assert!(!satisfies_push_condition(&g, &st, v, r_max_f));
        }
        assert!((st.mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic() {
        let g = gen::erdos_renyi(100, 700, 9);
        let (mut a, boundary) = after_hhop(&g, 0, 2, 1e-8);
        let (mut b, _) = after_hhop(&g, 0, 2, 1e-8);
        omfwd(&g, 0.2, 1e-5, &boundary, &mut a);
        omfwd(&g, 0.2, 1e-5, &boundary, &mut b);
        for v in g.nodes() {
            assert_eq!(a.reserve(v), b.reserve(v));
            assert_eq!(a.residue(v), b.residue(v));
        }
    }
}
