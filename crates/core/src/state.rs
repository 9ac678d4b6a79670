//! Reserve/residue state for push-style algorithms.
//!
//! Every local-update algorithm in this crate (Forward Search, FORA's first
//! phase, h-HopFWD, OMFWD) maintains, per node `t`, a *reserve* `π^f(s,t)`
//! (settled probability mass) and a *residue* `r^f(s,t)` (mass still to be
//! distributed), tied together by the paper's Equation 2 invariant:
//!
//! ```text
//! π(s,t) = π^f(s,t) + Σ_v r^f(s,v) · π(v,t)
//! ```
//!
//! The state is dense (`Vec<f64>` indexed by node id) for O(1) access, with
//! a *touched list* so that repeated queries on the same graph reset in
//! O(touched) instead of O(n) — the pattern the reference FORA code uses.
//! The push phases' FIFO queue lives here too ([`PushQueue`]), so a pooled
//! workspace answers query after query without an O(n) allocation.

use resacc_graph::NodeId;
use std::collections::VecDeque;

/// FIFO queue of nodes awaiting a push, with O(1) membership. Kept in the
/// [`ForwardState`] workspace and lent out by [`ForwardState::with_queue`].
#[derive(Clone, Debug, Default)]
pub struct PushQueue {
    queue: VecDeque<NodeId>,
    queued: Vec<bool>,
}

impl PushQueue {
    /// True if `v` is waiting in the queue.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.queued[v as usize]
    }

    /// Appends `v` to the back of the queue.
    #[inline]
    pub fn push(&mut self, v: NodeId) {
        self.queued[v as usize] = true;
        self.queue.push_back(v);
    }

    /// Removes the node at the front of the queue.
    #[inline]
    pub fn pop(&mut self) -> Option<NodeId> {
        let v = self.queue.pop_front()?;
        self.queued[v as usize] = false;
        Some(v)
    }

    /// Empties the queue in O(queued) — nonzero only after an aborted push
    /// phase, since a completed one drains its queue.
    fn clear(&mut self) {
        for v in self.queue.drain(..) {
            self.queued[v as usize] = false;
        }
    }
}

/// Dense reserve/residue vectors plus a touched-node list for cheap reset.
#[derive(Clone, Debug)]
pub struct ForwardState {
    reserve: Vec<f64>,
    residue: Vec<f64>,
    touched: Vec<NodeId>,
    is_touched: Vec<bool>,
    queue: PushQueue,
}

impl ForwardState {
    /// Creates an all-zero state for `n` nodes.
    pub fn new(n: usize) -> Self {
        ForwardState {
            reserve: vec![0.0; n],
            residue: vec![0.0; n],
            touched: Vec::new(),
            is_touched: vec![false; n],
            queue: PushQueue::default(),
        }
    }

    /// Number of nodes this state covers.
    pub fn len(&self) -> usize {
        self.reserve.len()
    }

    /// True if sized for zero nodes.
    pub fn is_empty(&self) -> bool {
        self.reserve.is_empty()
    }

    /// Reserve `π^f(s,t)` of node `t`.
    #[inline]
    pub fn reserve(&self, t: NodeId) -> f64 {
        self.reserve[t as usize]
    }

    /// Residue `r^f(s,t)` of node `t`.
    #[inline]
    pub fn residue(&self, t: NodeId) -> f64 {
        self.residue[t as usize]
    }

    #[inline]
    fn touch(&mut self, t: NodeId) {
        if !self.is_touched[t as usize] {
            self.is_touched[t as usize] = true;
            self.touched.push(t);
        }
    }

    /// Adds to the reserve of `t`.
    #[inline]
    pub fn add_reserve(&mut self, t: NodeId, amount: f64) {
        self.reserve[t as usize] += amount;
        self.touch(t);
    }

    /// Adds to the residue of `t`.
    #[inline]
    pub fn add_residue(&mut self, t: NodeId, amount: f64) {
        self.residue[t as usize] += amount;
        self.touch(t);
    }

    /// Overwrites the residue of `t`.
    #[inline]
    pub fn set_residue(&mut self, t: NodeId, value: f64) {
        self.residue[t as usize] = value;
        self.touch(t);
    }

    /// Multiplies the reserve of `t` by `factor` (used by h-HopFWD's
    /// updating phase).
    #[inline]
    pub fn scale_reserve(&mut self, t: NodeId, factor: f64) {
        self.reserve[t as usize] *= factor;
    }

    /// Multiplies the residue of `t` by `factor`.
    #[inline]
    pub fn scale_residue(&mut self, t: NodeId, factor: f64) {
        self.residue[t as usize] *= factor;
    }

    /// Nodes whose reserve or residue was ever written since the last reset
    /// (superset of the currently-nonzero nodes), in first-touch order.
    pub fn touched(&self) -> &[NodeId] {
        &self.touched
    }

    /// Iterates `(node, residue)` over touched nodes with residue > 0.
    pub fn nonzero_residues(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.touched
            .iter()
            .map(move |&v| (v, self.residue[v as usize]))
            .filter(|&(_, r)| r > 0.0)
    }

    /// Sum of all residues `r_sum = Σ_v r^f(s,v)`.
    pub fn residue_sum(&self) -> f64 {
        self.touched.iter().map(|&v| self.residue[v as usize]).sum()
    }

    /// Sum of all reserves.
    pub fn reserve_sum(&self) -> f64 {
        self.touched.iter().map(|&v| self.reserve[v as usize]).sum()
    }

    /// Total tracked mass (`reserve_sum + residue_sum`). For any sequence of
    /// forward pushes starting from a unit residue at the source on a graph
    /// whose walks cannot escape, this is exactly 1 — the invariant the
    /// property tests assert.
    pub fn mass(&self) -> f64 {
        self.touched
            .iter()
            .map(|&v| self.reserve[v as usize] + self.residue[v as usize])
            .sum()
    }

    /// Runs `f` with the workspace's [`PushQueue`] lent out beside the
    /// state, so a push loop can hold both mutably. The queue is sized for
    /// this state on first use and comes back as `f` left it, `Err` or not;
    /// [`ForwardState::reset`] empties what an aborted phase left queued.
    pub fn with_queue<R>(&mut self, f: impl FnOnce(&mut Self, &mut PushQueue) -> R) -> R {
        let mut queue = std::mem::take(&mut self.queue);
        if queue.queued.len() != self.len() {
            queue = PushQueue {
                queue: VecDeque::new(),
                queued: vec![false; self.len()],
            };
        }
        let out = f(self, &mut queue);
        self.queue = queue;
        out
    }

    /// Clears the state (and any queued nodes) in O(touched).
    pub fn reset(&mut self) {
        for &v in &self.touched {
            self.reserve[v as usize] = 0.0;
            self.residue[v as usize] = 0.0;
            self.is_touched[v as usize] = false;
        }
        self.touched.clear();
        self.queue.clear();
    }

    /// Initializes the canonical SSRWR start state: `r(s) = 1`, all else 0.
    pub fn init_source(&mut self, s: NodeId) {
        self.reset();
        self.set_residue(s, 1.0);
    }

    /// Copies the reserve vector out as the final score estimate.
    pub fn scores(&self) -> Vec<f64> {
        self.reserve.clone()
    }

    /// Moves the reserve vector out without cloning, resetting the state.
    pub fn take_scores(&mut self) -> Vec<f64> {
        let n = self.reserve.len();
        for &v in &self.touched {
            self.residue[v as usize] = 0.0;
            self.is_touched[v as usize] = false;
        }
        self.touched.clear();
        self.queue.clear();
        std::mem::replace(&mut self.reserve, vec![0.0; n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_and_accessors() {
        let mut st = ForwardState::new(4);
        st.init_source(2);
        assert_eq!(st.residue(2), 1.0);
        assert_eq!(st.residue(0), 0.0);
        assert_eq!(st.reserve(2), 0.0);
        assert_eq!(st.len(), 4);
        assert!(!st.is_empty());
    }

    #[test]
    fn touched_tracks_writes() {
        let mut st = ForwardState::new(5);
        st.add_residue(1, 0.5);
        st.add_reserve(3, 0.1);
        st.add_residue(1, 0.25); // second write: not re-added
        assert_eq!(st.touched(), &[1, 3]);
    }

    #[test]
    fn sums_and_mass() {
        let mut st = ForwardState::new(3);
        st.add_residue(0, 0.4);
        st.add_residue(1, 0.1);
        st.add_reserve(2, 0.5);
        assert!((st.residue_sum() - 0.5).abs() < 1e-15);
        assert!((st.reserve_sum() - 0.5).abs() < 1e-15);
        assert!((st.mass() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn nonzero_residues_filters_zeros() {
        let mut st = ForwardState::new(3);
        st.add_residue(0, 0.3);
        st.add_residue(1, 0.7);
        st.set_residue(1, 0.0);
        let nz: Vec<_> = st.nonzero_residues().collect();
        assert_eq!(nz, vec![(0, 0.3)]);
    }

    #[test]
    fn reset_is_complete() {
        let mut st = ForwardState::new(4);
        st.add_residue(1, 0.9);
        st.add_reserve(2, 0.1);
        st.reset();
        assert_eq!(st.touched().len(), 0);
        assert_eq!(st.residue(1), 0.0);
        assert_eq!(st.reserve(2), 0.0);
        // reusable afterwards
        st.init_source(0);
        assert_eq!(st.residue(0), 1.0);
    }

    #[test]
    fn queue_is_lent_sized_and_emptied_by_reset() {
        let mut st = ForwardState::new(4);
        st.with_queue(|_, q| {
            q.push(2);
            q.push(0);
            assert!(q.contains(2) && !q.contains(1));
            assert_eq!(q.pop(), Some(2));
            assert!(!q.contains(2));
        });
        // An aborted phase leaves node 0 queued; reset empties the queue.
        st.with_queue(|_, q| assert!(q.contains(0)));
        st.reset();
        st.with_queue(|_, q| {
            assert!(!q.contains(0));
            assert_eq!(q.pop(), None);
        });
    }

    #[test]
    fn take_scores_moves_and_resets() {
        let mut st = ForwardState::new(2);
        st.add_reserve(0, 0.25);
        st.add_residue(1, 0.75);
        let scores = st.take_scores();
        assert_eq!(scores, vec![0.25, 0.0]);
        assert_eq!(st.residue(1), 0.0);
        assert_eq!(st.touched().len(), 0);
        assert_eq!(st.len(), 2);
    }

    #[test]
    fn scaling() {
        let mut st = ForwardState::new(2);
        st.add_reserve(0, 0.2);
        st.add_residue(0, 0.4);
        st.scale_reserve(0, 2.0);
        st.scale_residue(0, 0.5);
        assert!((st.reserve(0) - 0.4).abs() < 1e-15);
        assert!((st.residue(0) - 0.2).abs() < 1e-15);
    }
}
