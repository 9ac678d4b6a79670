//! The random-walk engine shared by every Monte-Carlo-based algorithm.
//!
//! A walk starts at some node `v` and, at each step, terminates with
//! probability `α` or moves to a uniformly random out-neighbour with
//! probability `1 − α`. **Dead-end convention:** a walk that reaches a node
//! with no out-neighbours terminates there. Forward push, power iteration
//! and the exact solver in this crate use the matching convention (a
//! dead-end push converts the whole residue into reserve), so all
//! algorithms estimate the same stationary distribution and `Σ_t π(s,t) = 1`
//! exactly. (FORA's reference code instead wires dead ends back to the
//! source; either convention is fine as long as it is applied uniformly.)

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use resacc_graph::{CsrGraph, NodeId};

/// A seeded random-walk generator over a graph.
///
/// Cheap to construct; hold one per query (or per thread) and reuse it for
/// every walk so the RNG stream is deterministic given the seed.
#[derive(Debug)]
pub struct Walker<'g> {
    graph: &'g CsrGraph,
    rng: SmallRng,
    alpha: f64,
    walks_taken: u64,
    steps_taken: u64,
}

impl<'g> Walker<'g> {
    /// Creates a walker with restart probability `alpha` and a fixed seed.
    pub fn new(graph: &'g CsrGraph, alpha: f64, seed: u64) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
        Walker {
            graph,
            rng: SmallRng::seed_from_u64(seed),
            alpha,
            walks_taken: 0,
            steps_taken: 0,
        }
    }

    /// Simulates one walk from `start`, returning its terminal node.
    pub fn walk(&mut self, start: NodeId) -> NodeId {
        self.walks_taken += 1;
        let mut cur = start;
        loop {
            let neighbors = self.graph.out_neighbors(cur);
            if neighbors.is_empty() || self.rng.gen::<f64>() < self.alpha {
                return cur;
            }
            cur = neighbors[self.rng.gen_range(0..neighbors.len())];
            self.steps_taken += 1;
        }
    }

    /// Simulates `count` walks from `start`, adding `credit` to
    /// `scores[terminal]` for each — the inner loop of every remedy phase.
    pub fn walk_and_credit(&mut self, start: NodeId, count: u64, credit: f64, scores: &mut [f64]) {
        for _ in 0..count {
            let t = self.walk(start);
            scores[t as usize] += credit;
        }
    }

    /// Simulates `out.len()` walks from `start`, writing each terminal node
    /// to `out` in walk order. The parallel remedy path records terminals in
    /// worker threads with this, then replays the credits serially in chunk
    /// order — the same f64 additions [`Walker::walk_and_credit`] would have
    /// performed, so the two paths are bit-identical.
    pub fn walk_and_record(&mut self, start: NodeId, out: &mut [NodeId]) {
        for slot in out {
            *slot = self.walk(start);
        }
    }

    /// Draws one uniform element from a non-empty slice using this walker's
    /// RNG stream (used by Particle Filtering's random phase).
    pub fn uniform_pick(&mut self, candidates: &[NodeId]) -> NodeId {
        assert!(!candidates.is_empty(), "uniform_pick needs candidates");
        candidates[self.rng.gen_range(0..candidates.len())]
    }

    /// Total walks simulated so far.
    pub fn walks_taken(&self) -> u64 {
        self.walks_taken
    }

    /// Total non-terminal steps taken so far. The expected value per walk is
    /// `(1 − α)/α` on dead-end-free graphs.
    pub fn steps_taken(&self) -> u64 {
        self.steps_taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resacc_graph::gen;

    #[test]
    fn walk_terminates_at_dead_end() {
        let g = gen::path(3); // 0→1→2, node 2 dead end
        let mut w = Walker::new(&g, 0.2, 1);
        for _ in 0..50 {
            let t = w.walk(0);
            assert!(t <= 2);
        }
        // Starting at the dead end always terminates there immediately.
        assert_eq!(w.walk(2), 2);
    }

    #[test]
    fn expected_walk_length_matches_alpha() {
        let g = gen::cycle(10); // no dead ends
        let alpha = 0.25;
        let mut w = Walker::new(&g, alpha, 42);
        let n_walks = 20_000;
        for _ in 0..n_walks {
            w.walk(0);
        }
        let avg_steps = w.steps_taken() as f64 / n_walks as f64;
        let expected = (1.0 - alpha) / alpha; // geometric
        assert!(
            (avg_steps - expected).abs() < 0.1,
            "avg {avg_steps} vs expected {expected}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let g = gen::complete(6);
        let mut a = Walker::new(&g, 0.2, 9);
        let mut b = Walker::new(&g, 0.2, 9);
        for _ in 0..100 {
            assert_eq!(a.walk(0), b.walk(0));
        }
        let mut c = Walker::new(&g, 0.2, 10);
        let seq_a: Vec<_> = (0..50).map(|_| a.walk(0)).collect();
        let seq_c: Vec<_> = (0..50).map(|_| c.walk(0)).collect();
        assert_ne!(seq_a, seq_c);
    }

    #[test]
    fn walk_and_credit_accumulates() {
        let g = gen::star(4);
        let mut w = Walker::new(&g, 0.2, 3);
        let mut scores = vec![0.0; 4];
        w.walk_and_credit(0, 100, 0.01, &mut scores);
        let total: f64 = scores.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(w.walks_taken(), 100);
    }

    #[test]
    fn source_termination_frequency() {
        // On a cycle, P(terminate at start without moving) = alpha.
        let g = gen::cycle(50);
        let alpha = 0.3;
        let mut w = Walker::new(&g, alpha, 7);
        let n = 30_000;
        let mut at_start = 0;
        for _ in 0..n {
            if w.walk(0) == 0 {
                at_start += 1;
            }
        }
        let p = at_start as f64 / n as f64;
        // P(end at 0) = alpha + (1-alpha)^50 * ... ≈ alpha for a 50-cycle.
        assert!((p - alpha).abs() < 0.02, "p = {p}");
    }
}
