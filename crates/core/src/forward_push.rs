//! Forward Search — local forward push (paper Algorithm 1, from Andersen,
//! Chung & Lang \[2\]).
//!
//! Maintains per-node reserves and residues and repeatedly applies the
//! *forward push operation* (paper Definition 7) at any node `t` satisfying
//! the *push condition* `r^f(s,t)/d_out(t) ≥ r_max` (Definition 6):
//!
//! 1. `π^f(s,t) += α·r^f(s,t)`
//! 2. for each out-neighbour `v`: `r^f(s,v) += (1−α)·r^f(s,t)/d_out(t)`
//! 3. `r^f(s,t) = 0`
//!
//! Dead ends (no out-neighbours) convert the entire residue into reserve,
//! matching the crate-wide dead-end convention (see [`crate::walker`]).
//!
//! Used directly as the paper's `FWD` baseline (with a tiny `r_max` such as
//! 10⁻¹²) and as the first phase of FORA (with the cost-balancing `r_max`).

use crate::state::ForwardState;
use resacc_graph::{CsrGraph, NodeId};

/// Statistics of a forward-push run.
#[derive(Clone, Copy, Debug, Default)]
pub struct PushStats {
    /// Number of push operations performed.
    pub pushes: u64,
    /// Number of residue updates (edge traversals).
    pub edge_updates: u64,
}

/// Performs the forward push operation at `t`, regardless of the push
/// condition. Exposed for composition by h-HopFWD and OMFWD.
#[inline]
pub fn push_at(graph: &CsrGraph, state: &mut ForwardState, t: NodeId, alpha: f64) -> u64 {
    let r = state.residue(t);
    if r == 0.0 {
        return 0;
    }
    let neighbors = graph.out_neighbors(t);
    if neighbors.is_empty() {
        state.add_reserve(t, r);
        state.set_residue(t, 0.0);
        return 0;
    }
    state.add_reserve(t, alpha * r);
    let share = (1.0 - alpha) * r / neighbors.len() as f64;
    for &v in neighbors {
        state.add_residue(v, share);
    }
    state.set_residue(t, 0.0);
    neighbors.len() as u64
}

/// Whether `t` satisfies the push condition for threshold `r_max`.
/// Dead ends qualify whenever their residue is at least `r_max` (they have
/// no out-degree to divide by; any positive residue at a dead end is pure
/// reserve waiting to settle).
#[inline]
pub fn satisfies_push_condition(
    graph: &CsrGraph,
    state: &ForwardState,
    t: NodeId,
    r_max: f64,
) -> bool {
    let r = state.residue(t);
    if r <= 0.0 {
        return false;
    }
    let d = graph.out_degree(t);
    if d == 0 {
        r >= r_max
    } else {
        r / d as f64 >= r_max
    }
}

/// Runs Forward Search from `source` with residue threshold `r_max`,
/// populating `state` (which is reset first). Returns push statistics.
///
/// Runs in `O(1/(α·r_max))` pushes (Andersen et al.).
pub fn forward_search(
    graph: &CsrGraph,
    source: NodeId,
    alpha: f64,
    r_max: f64,
    state: &mut ForwardState,
) -> PushStats {
    assert!(alpha > 0.0 && alpha < 1.0);
    assert!(r_max > 0.0, "r_max must be positive");
    state.init_source(source);
    forward_search_resume(graph, alpha, r_max, state)
}

/// Continues Forward Search on an existing reserve/residue state: pushes
/// every node that satisfies the push condition until none does. This is
/// OMFWD's engine and also what FORA uses after h-HopFWD-style warm starts.
pub fn forward_search_resume(
    graph: &CsrGraph,
    alpha: f64,
    r_max: f64,
    state: &mut ForwardState,
) -> PushStats {
    state.with_queue(|state, queue| {
        let mut stats = PushStats::default();
        for &v in state.touched() {
            if satisfies_push_condition(graph, state, v, r_max) {
                queue.push(v);
            }
        }
        while let Some(t) = queue.pop() {
            if !satisfies_push_condition(graph, state, t, r_max) {
                continue;
            }
            stats.pushes += 1;
            stats.edge_updates += push_at(graph, state, t, alpha);
            for &v in graph.out_neighbors(t) {
                if !queue.contains(v) && satisfies_push_condition(graph, state, v, r_max) {
                    queue.push(v);
                }
            }
        }
        stats
    })
}

/// Convenience: Forward Search returning just the reserve vector as scores
/// (the paper's `FWD` baseline usage).
pub fn forward_search_scores(graph: &CsrGraph, source: NodeId, alpha: f64, r_max: f64) -> Vec<f64> {
    let mut state = ForwardState::new(graph.num_nodes());
    forward_search(graph, source, alpha, r_max, &mut state);
    state.take_scores()
}

#[cfg(test)]
mod tests {
    use super::*;
    use resacc_graph::gen;

    #[test]
    fn mass_conservation() {
        let g = gen::barabasi_albert(300, 3, 1);
        let mut st = ForwardState::new(g.num_nodes());
        forward_search(&g, 0, 0.2, 1e-6, &mut st);
        assert!((st.mass() - 1.0).abs() < 1e-9, "mass {}", st.mass());
    }

    #[test]
    fn residues_below_threshold_on_exit() {
        let g = gen::erdos_renyi(200, 1000, 2);
        let r_max = 1e-5;
        let mut st = ForwardState::new(g.num_nodes());
        forward_search(&g, 0, 0.2, r_max, &mut st);
        for v in g.nodes() {
            assert!(
                !satisfies_push_condition(&g, &st, v, r_max),
                "node {v} still pushable"
            );
        }
    }

    #[test]
    fn tiny_r_max_approaches_exact() {
        let g = gen::erdos_renyi(50, 300, 4);
        let scores = forward_search_scores(&g, 0, 0.2, 1e-12);
        let exact = crate::exact::exact_rwr(&g, 0, 0.2);
        for v in 0..50 {
            assert!(
                (scores[v] - exact[v]).abs() < 1e-6,
                "node {v}: {} vs {}",
                scores[v],
                exact[v]
            );
        }
    }

    #[test]
    fn figure1_example_without_accumulation() {
        // Paper Figure 1(a): v1→v2, v1→v3, v2→v3 is NOT present; edges are
        // v1→{v2,v3}, v2→v4, v3→v2, with α = 0.2.
        // After push at v1: r(v2)=r(v3)=0.4.
        let g = resacc_graph::GraphBuilder::new(4)
            .edge(0, 1) // v1→v2
            .edge(0, 2) // v1→v3
            .edge(1, 3) // v2→v4
            .edge(2, 1) // v3→v2
            .build();
        let mut st = ForwardState::new(4);
        st.init_source(0);
        push_at(&g, &mut st, 0, 0.2);
        assert!((st.residue(1) - 0.4).abs() < 1e-12);
        assert!((st.residue(2) - 0.4).abs() < 1e-12);
        // Push v2 then v3 then v2 again — Figure 1(b)'s final residue at v4.
        push_at(&g, &mut st, 1, 0.2);
        push_at(&g, &mut st, 2, 0.2);
        push_at(&g, &mut st, 1, 0.2);
        assert!((st.residue(3) - 0.576).abs() < 1e-12);
    }

    #[test]
    fn figure1_example_with_accumulation() {
        // Figure 1(c): delay v2 until v3 has pushed; v2 pushes once with the
        // accumulated residue 0.72, giving the same final state in 3 pushes.
        let g = resacc_graph::GraphBuilder::new(4)
            .edge(0, 1)
            .edge(0, 2)
            .edge(1, 3)
            .edge(2, 1)
            .build();
        let mut st = ForwardState::new(4);
        st.init_source(0);
        push_at(&g, &mut st, 0, 0.2);
        push_at(&g, &mut st, 2, 0.2);
        assert!((st.residue(1) - 0.72).abs() < 1e-12);
        push_at(&g, &mut st, 1, 0.2);
        assert!((st.residue(3) - 0.576).abs() < 1e-12);
    }

    #[test]
    fn dead_end_converts_fully() {
        let g = gen::path(2); // 0→1, 1 dead end
        let mut st = ForwardState::new(2);
        forward_search(&g, 0, 0.2, 1e-12, &mut st);
        assert!((st.reserve(0) - 0.2).abs() < 1e-12);
        assert!((st.reserve(1) - 0.8).abs() < 1e-12);
        assert!(st.residue_sum() < 1e-12);
    }

    #[test]
    fn large_r_max_pushes_once() {
        let g = gen::cycle(5);
        let mut st = ForwardState::new(5);
        let stats = forward_search(&g, 0, 0.2, 0.5, &mut st);
        // r(1) becomes 0.8 after the first push; 0.8/1 ≥ 0.5 so it pushes
        // too; then 0.64 ≥ 0.5 ... r decays by 0.8 each hop: pushes until
        // r < 0.5 → 0.8^k < 0.5 → k ≥ 4 pushes total (1, .8, .64, .512).
        assert_eq!(stats.pushes, 4);
    }

    #[test]
    fn smaller_r_max_means_more_pushes() {
        let g = gen::barabasi_albert(500, 3, 7);
        let mut st = ForwardState::new(g.num_nodes());
        let coarse = forward_search(&g, 0, 0.2, 1e-3, &mut st).pushes;
        let fine = forward_search(&g, 0, 0.2, 1e-7, &mut st).pushes;
        assert!(fine > coarse, "fine {fine} vs coarse {coarse}");
    }

    #[test]
    fn resume_is_idempotent_when_converged() {
        let g = gen::erdos_renyi(100, 400, 5);
        let mut st = ForwardState::new(100);
        forward_search(&g, 0, 0.2, 1e-6, &mut st);
        let stats = forward_search_resume(&g, 0.2, 1e-6, &mut st);
        assert_eq!(stats.pushes, 0);
    }
}
