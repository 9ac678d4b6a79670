//! Incremental RWR score maintenance on dynamic graphs — OSP-style offset
//! propagation (Yoon, Jin & Kang, "Fast and Accurate Random Walk with
//! Restart on Dynamic Graphs with Guarantees").
//!
//! The index-free service invalidates every cached result on any mutation
//! (the version in the cache key stops matching). This module computes the
//! *score offset* induced by an edge delta instead, rolling a cached vector
//! forward across versions with a provable additive error bound.
//!
//! ## The offset equation
//!
//! Write the RWR vector as a row vector `x = ν·D_α` where `ν` solves
//! `ν = e_s + (1−α)·ν·P` (`P` the out-transition matrix, dead-end rows
//! zero) and `D_α` scales ordinary nodes by `α` (dead ends terminate every
//! visit — the crate-wide dead-end convention, see [`crate::walker`]).
//! When the graph changes `P → P'`, the offset `Δν = ν' − ν` satisfies
//!
//! ```text
//! Δν = r₀ · Σ_k ((1−α)·P')ᵏ      with   r₀ = (1−α)·ν·(P' − P)
//! ```
//!
//! i.e. it is the fixpoint of the standard forward-push operator
//! ([`crate::forward_push::push_at`]) on the **new** graph, seeded with the
//! *signed* residue `r₀`. Only the rows of nodes whose out-neighbourhood
//! changed contribute to `r₀`, so the seed is local to the delta:
//!
//! ```text
//! seed += (1−α)/α · x(u) · (dist_new(u) − dist_old(u))
//! ```
//!
//! where `dist(u)` is the uniform distribution over `u`'s out-neighbours,
//! or the point mass `e_u` when `u` is a dead end. The dead-end convention
//! makes this uniform rule exact even when a node's dead-end status flips:
//! a residue parked on a dead end converts fully to reserve, which is
//! precisely the `e_u` self-loop the convention models (verified against
//! the dense oracle in the tests below).
//!
//! ## Error bound
//!
//! Pushing stops when every node fails the signed push condition
//! `|r(t)|/d_out(t) ≥ δ`. The un-pushed residual satisfies, per target `t`,
//!
//! ```text
//! |Δx(t) − offset(t)|  ≤  Σ_v |r(v)| · π(v,t)  ≤  Σ_v |r(v)|
//! ```
//!
//! so the **measured residual L1 norm at termination is the claimed
//! additive error bound** of the upgrade — tight, not a worst-case
//! formula. Upgrades compose: a vector upgraded twice carries the sum of
//! both residual norms. The service layer accumulates this per cache entry
//! and falls back to a full recompute when the budget ε is exceeded.
//!
//! ## Delete semantics
//!
//! Edge insertions and deletions both reduce to out-row changes and are
//! handled exactly by the seed rule. `delete_node` also rewrites the rows
//! of every in-neighbour (which the delta log does not capture) — it is
//! recorded as [`DeltaChange::Unsupported`] and invalidates outright, as
//! does any mutation that grows the node set.

use crate::forward_push::push_at;
use crate::state::ForwardState;
use resacc_graph::{CsrGraph, NodeId};
use std::collections::{HashSet, VecDeque};

/// Default number of versions the per-session [`DeltaLog`] retains.
pub const DEFAULT_DELTA_WINDOW: usize = 256;

/// What one recorded mutation changed, from the offset engine's point of
/// view.
#[derive(Clone, Debug)]
pub enum DeltaChange {
    /// Out-rows of the touched source nodes **before** the mutation
    /// applied (the post-mutation rows live in the current graph).
    Rows(Vec<(NodeId, Vec<NodeId>)>),
    /// A mutation shape offsets cannot roll forward (`delete_node`, or a
    /// node-set-growing insert): entries older than this version can only
    /// be recomputed.
    Unsupported,
}

/// One version's recorded delta.
#[derive(Clone, Debug)]
pub struct DeltaRecord {
    /// The version this mutation produced.
    pub version: u64,
    /// The recorded row changes.
    pub change: DeltaChange,
}

/// Bounded ring of per-version deltas, recorded under the session's write
/// lock so versions are contiguous and gap-free.
#[derive(Debug)]
pub struct DeltaLog {
    capacity: usize,
    records: VecDeque<DeltaRecord>,
}

/// Why a cached vector could not be rolled forward.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpgradeError {
    /// The span contains a mutation offsets cannot express (node delete /
    /// node-set growth); the entry must be recomputed.
    Unsupported,
    /// The delta log no longer covers the requested span (aged out of the
    /// ring, or the version counter jumped past it).
    WindowExceeded,
}

impl std::fmt::Display for UpgradeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpgradeError::Unsupported => write!(f, "delta shape unsupported by offset propagation"),
            UpgradeError::WindowExceeded => write!(f, "delta log no longer covers the span"),
        }
    }
}

impl std::error::Error for UpgradeError {}

impl DeltaLog {
    /// Creates an empty log retaining at most `capacity` versions.
    pub fn new(capacity: usize) -> Self {
        DeltaLog {
            capacity: capacity.max(1),
            records: VecDeque::new(),
        }
    }

    /// Maximum retained versions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of retained versions.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Appends one version's delta, evicting the oldest beyond capacity.
    /// Callers must record every version exactly once, in order.
    pub fn record(&mut self, version: u64, change: DeltaChange) {
        self.records.push_back(DeltaRecord { version, change });
        while self.records.len() > self.capacity {
            self.records.pop_front();
        }
    }

    /// Forgets everything (snapshot installs jump the version counter, so
    /// spans across them are never upgradeable).
    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// Collects, for every node whose out-row changed in `(from, to]`, the
    /// row it had **at version `from`** (first recorded pre-image wins).
    /// Errs when the span is not fully retained or contains an unsupported
    /// delta.
    pub fn rows_between(
        &self,
        from: u64,
        to: u64,
    ) -> Result<Vec<(NodeId, Vec<NodeId>)>, UpgradeError> {
        let mut out: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
        let mut seen: HashSet<NodeId> = HashSet::new();
        let mut expect = from + 1;
        for rec in &self.records {
            if rec.version <= from {
                continue;
            }
            if rec.version > to {
                break;
            }
            if rec.version != expect {
                return Err(UpgradeError::WindowExceeded);
            }
            expect += 1;
            match &rec.change {
                DeltaChange::Unsupported => return Err(UpgradeError::Unsupported),
                DeltaChange::Rows(rows) => {
                    for (u, row) in rows {
                        if seen.insert(*u) {
                            out.push((*u, row.clone()));
                        }
                    }
                }
            }
        }
        if expect != to + 1 {
            return Err(UpgradeError::WindowExceeded);
        }
        Ok(out)
    }
}

/// A rolled-forward score vector plus its incremental error claim.
#[derive(Clone, Debug)]
pub struct Upgraded {
    /// The upgraded scores, valid for the new graph.
    pub scores: Vec<f64>,
    /// Additive per-entry error introduced by *this* upgrade: the residual
    /// L1 norm at push termination (see the module docs). Accumulates
    /// across chained upgrades.
    pub err_bound: f64,
    /// Signed pushes performed (the work the upgrade cost, for comparison
    /// against a cold query).
    pub pushes: u64,
}

/// Seeds the signed offset residues for a batch of out-row changes:
/// `(1−α)/α · x(u) · (dist_new(u) − dist_old(u))` per touched node `u`,
/// where `dist` is uniform over out-neighbours (`e_u` for dead ends).
/// `old_rows` carries each touched node's out-row *before* the delta; the
/// new rows are read from `graph`.
pub fn seed_offset_residues(
    graph: &CsrGraph,
    scores: &[f64],
    old_rows: &[(NodeId, Vec<NodeId>)],
    alpha: f64,
    state: &mut ForwardState,
) {
    let c = (1.0 - alpha) / alpha;
    for (u, old_row) in old_rows {
        let x = scores[*u as usize];
        if x == 0.0 {
            continue; // the cached walk never reaches u: no mass to move
        }
        let new_row = graph.out_neighbors(*u);
        if new_row == &old_row[..] {
            continue; // deduplicated insert / absent-edge delete: no-op row
        }
        let w = c * x;
        if old_row.is_empty() {
            state.add_residue(*u, -w);
        } else {
            let share = w / old_row.len() as f64;
            for &v in old_row {
                state.add_residue(v, -share);
            }
        }
        if new_row.is_empty() {
            state.add_residue(*u, w);
        } else {
            let share = w / new_row.len() as f64;
            for &v in new_row {
                state.add_residue(v, share);
            }
        }
    }
}

/// The signed push condition: `|r(t)|/d_out(t) ≥ δ` (dead ends: `|r| ≥ δ`).
/// Sign-agnostic because positive and negative offset mass decay
/// identically under [`push_at`].
#[inline]
fn signed_push_condition(graph: &CsrGraph, state: &ForwardState, t: NodeId, delta: f64) -> bool {
    let r = state.residue(t).abs();
    if r == 0.0 {
        return false;
    }
    let d = graph.out_degree(t);
    if d == 0 {
        r >= delta
    } else {
        r / d as f64 >= delta
    }
}

/// Pushes the seeded signed residues on `graph` until no node satisfies
/// the signed push condition for `delta`. Returns the number of pushes.
///
/// Terminates for any `delta > 0`: every push removes at least `α·δ` from
/// the total absolute residue (cancellation only removes more).
pub fn push_offsets(graph: &CsrGraph, alpha: f64, delta: f64, state: &mut ForwardState) -> u64 {
    assert!(alpha > 0.0 && alpha < 1.0);
    assert!(delta > 0.0, "push threshold must be positive");
    state.with_queue(|state, queue| {
        let mut pushes = 0u64;
        for &v in state.touched() {
            if signed_push_condition(graph, state, v, delta) {
                queue.push(v);
            }
        }
        while let Some(t) = queue.pop() {
            if !signed_push_condition(graph, state, t, delta) {
                continue;
            }
            pushes += 1;
            push_at(graph, state, t, alpha);
            for &v in graph.out_neighbors(t) {
                if !queue.contains(v) && signed_push_condition(graph, state, v, delta) {
                    queue.push(v);
                }
            }
        }
        pushes
    })
}

/// Residual L1 norm `Σ_v |r(v)|` — the additive error bound of whatever
/// the reserves currently claim (module docs).
pub fn residual_l1(state: &ForwardState) -> f64 {
    state
        .touched()
        .iter()
        .map(|&v| state.residue(v).abs())
        .sum()
}

/// Rolls `scores` (valid before the row changes in `old_rows`) forward to
/// `graph`, pushing the offset until the signed residual drops below
/// `delta` per out-edge. `state` is used as scratch and handed back clean;
/// it must be sized for `graph`.
///
/// The returned [`Upgraded::err_bound`] is exact for the offset itself:
/// had `scores` been the exact pre-delta RWR vector, every entry of the
/// result is within `err_bound` of the exact post-delta vector.
pub fn upgrade_scores(
    graph: &CsrGraph,
    scores: &[f64],
    old_rows: &[(NodeId, Vec<NodeId>)],
    alpha: f64,
    delta: f64,
    state: &mut ForwardState,
) -> Upgraded {
    assert_eq!(
        scores.len(),
        graph.num_nodes(),
        "cached vector sized for a different node set"
    );
    state.reset();
    seed_offset_residues(graph, scores, old_rows, alpha, state);
    let pushes = push_offsets(graph, alpha, delta, state);
    let err_bound = residual_l1(state);
    let mut out = scores.to_vec();
    for &v in state.touched() {
        // True scores are non-negative; clamping is 1-Lipschitz, so it
        // never widens the distance to the exact vector.
        let s = out[v as usize] + state.reserve(v);
        out[v as usize] = if s < 0.0 { 0.0 } else { s };
    }
    state.reset();
    Upgraded {
        scores: out,
        err_bound,
        pushes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_rwr;
    use resacc_graph::{dynamic as gd, gen, GraphBuilder};

    const ALPHA: f64 = 0.2;

    /// Old rows for `edges` about to be applied to `g` (what the session's
    /// delta log captures).
    fn capture_rows(g: &CsrGraph, edges: &[(NodeId, NodeId)]) -> Vec<(NodeId, Vec<NodeId>)> {
        let mut sources: Vec<NodeId> = edges.iter().map(|&(u, _)| u).collect();
        sources.sort_unstable();
        sources.dedup();
        sources
            .into_iter()
            .map(|u| (u, g.out_neighbors(u).to_vec()))
            .collect()
    }

    fn assert_upgrade_matches_exact(g_old: &CsrGraph, g_new: &CsrGraph, rows: &[(NodeId, Vec<NodeId>)]) {
        let n = g_old.num_nodes();
        for s in [0u32, (n as u32 - 1) / 2, n as u32 - 1] {
            let old = exact_rwr(g_old, s, ALPHA);
            let fresh = exact_rwr(g_new, s, ALPHA);
            let mut ws = ForwardState::new(n);
            let up = upgrade_scores(g_new, &old, rows, ALPHA, 1e-4, &mut ws);
            for (t, (a, b)) in up.scores.iter().zip(&fresh).enumerate() {
                let diff = (a - b).abs();
                assert!(
                    diff <= up.err_bound + 1e-9,
                    "source {s} node {t}: diff {diff} > claimed {}",
                    up.err_bound
                );
            }
            assert_eq!(ws.touched().len(), 0, "workspace handed back dirty");
        }
    }

    #[test]
    fn insertion_offset_matches_dense_oracle() {
        let g_old = gen::erdos_renyi(60, 300, 7);
        let edges = [(3u32, 41u32), (3, 17), (25, 0), (59, 30)];
        let rows = capture_rows(&g_old, &edges);
        let g_new = gd::insert_edges(&g_old, &edges);
        assert_upgrade_matches_exact(&g_old, &g_new, &rows);
    }

    #[test]
    fn deletion_offset_matches_dense_oracle() {
        let g_old = gen::barabasi_albert(50, 3, 11);
        // Delete a couple of real edges (BA node 10 has edges to earlier ids).
        let del: Vec<(NodeId, NodeId)> = g_old
            .out_neighbors(10)
            .iter()
            .take(1)
            .map(|&v| (10u32, v))
            .chain(g_old.out_neighbors(20).iter().take(1).map(|&v| (20u32, v)))
            .collect();
        let rows = capture_rows(&g_old, &del);
        let g_new = gd::delete_edges(&g_old, &del);
        assert_upgrade_matches_exact(&g_old, &g_new, &rows);
    }

    #[test]
    fn dead_end_resurrection_is_exact() {
        // 0→1, 1 is a dead end; inserting 1→2 flips 1's dead-end status —
        // the case where the e_u self-loop convention must be exact.
        let g_old = GraphBuilder::new(3).edge(0, 1).build();
        let edges = [(1u32, 2u32)];
        let rows = capture_rows(&g_old, &edges);
        let g_new = gd::insert_edges(&g_old, &edges);
        assert_upgrade_matches_exact(&g_old, &g_new, &rows);
    }

    #[test]
    fn making_a_dead_end_is_exact() {
        // Deleting 1's only out-edge turns it INTO a dead end.
        let g_old = GraphBuilder::new(3).edge(0, 1).edge(1, 2).edge(2, 0).build();
        let del = [(1u32, 2u32)];
        let rows = capture_rows(&g_old, &del);
        let g_new = gd::delete_edges(&g_old, &del);
        assert_upgrade_matches_exact(&g_old, &g_new, &rows);
    }

    #[test]
    fn tighter_delta_means_smaller_claim() {
        let g_old = gen::barabasi_albert(80, 3, 5);
        let edges = [(2u32, 60u32), (40, 1)];
        let rows = capture_rows(&g_old, &edges);
        let g_new = gd::insert_edges(&g_old, &edges);
        let old = exact_rwr(&g_old, 0, ALPHA);
        let mut ws = ForwardState::new(80);
        let coarse = upgrade_scores(&g_new, &old, &rows, ALPHA, 1e-2, &mut ws);
        let fine = upgrade_scores(&g_new, &old, &rows, ALPHA, 1e-8, &mut ws);
        assert!(fine.err_bound <= coarse.err_bound);
        assert!(fine.err_bound < 1e-4, "tight push must drain the residual");
    }

    #[test]
    fn untouched_source_upgrades_for_free() {
        // A delta the cached walk never reaches: zero seed, zero error.
        let g_old = GraphBuilder::new(4).edge(0, 1).edge(1, 0).edge(2, 3).build();
        let edges = [(2u32, 1u32)];
        let rows = capture_rows(&g_old, &edges);
        let g_new = gd::insert_edges(&g_old, &edges);
        let old = exact_rwr(&g_old, 0, ALPHA);
        let mut ws = ForwardState::new(4);
        let up = upgrade_scores(&g_new, &old, &rows, ALPHA, 1e-6, &mut ws);
        assert_eq!(up.pushes, 0);
        assert_eq!(up.err_bound, 0.0);
        assert_eq!(up.scores, old);
    }

    #[test]
    fn delta_log_window_and_unsupported() {
        let mut log = DeltaLog::new(3);
        assert!(log.is_empty());
        log.record(1, DeltaChange::Rows(vec![(0, vec![1])]));
        log.record(2, DeltaChange::Rows(vec![(0, vec![1, 2]), (5, vec![])]));
        assert_eq!(log.rows_between(0, 2).unwrap().len(), 2);
        // First-seen pre-image wins: node 0's row at version 0 is [1].
        let rows = log.rows_between(0, 2).unwrap();
        assert_eq!(rows[0], (0, vec![1]));
        log.record(3, DeltaChange::Unsupported);
        assert_eq!(log.rows_between(0, 3), Err(UpgradeError::Unsupported));
        assert_eq!(log.rows_between(2, 3), Err(UpgradeError::Unsupported));
        log.record(4, DeltaChange::Rows(vec![]));
        // Version 1 aged out of the capacity-3 ring.
        assert_eq!(log.len(), 3);
        assert_eq!(log.rows_between(0, 4), Err(UpgradeError::WindowExceeded));
        assert!(log.rows_between(3, 4).is_ok());
        log.clear();
        assert_eq!(log.rows_between(3, 4), Err(UpgradeError::WindowExceeded));
        assert_eq!(log.rows_between(4, 4).unwrap().len(), 0);
    }

    #[test]
    fn chained_upgrades_accumulate_the_claim() {
        let g0 = gen::erdos_renyi(40, 200, 3);
        let e1 = [(1u32, 30u32)];
        let rows1 = capture_rows(&g0, &e1);
        let g1 = gd::insert_edges(&g0, &e1);
        let e2 = [(30u32, 2u32)];
        let rows2 = capture_rows(&g1, &e2);
        let g2 = gd::insert_edges(&g1, &e2);

        let exact0 = exact_rwr(&g0, 0, ALPHA);
        let exact2 = exact_rwr(&g2, 0, ALPHA);
        let mut ws = ForwardState::new(40);
        let up1 = upgrade_scores(&g1, &exact0, &rows1, ALPHA, 1e-3, &mut ws);
        let up2 = upgrade_scores(&g2, &up1.scores, &rows2, ALPHA, 1e-3, &mut ws);
        let total = up1.err_bound + up2.err_bound;
        for (t, (a, b)) in up2.scores.iter().zip(&exact2).enumerate() {
            let diff = (a - b).abs();
            assert!(diff <= total + 1e-9, "node {t}: {diff} > {total}");
        }
    }
}
