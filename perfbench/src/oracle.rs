//! The correctness oracle, written apart from the program: its own power
//! iteration over the benchmark's own edge lists, and the checks every
//! workload's answers must pass. No `resacc::power` or `resacc::exact`
//! call is made here.

use crate::gen::EdgeList;

/// Exact-to-tolerance RWR scores from `source` by power iteration, with the
/// program's dead-end rule (a walk that reaches a node without out-arcs
/// stops there). Iterates until the unsettled mass is below `1e-14`.
pub fn rwr(graph: &EdgeList, source: u32, alpha: f64) -> Vec<f64> {
    let n = graph.n;
    let mut scores = vec![0.0f64; n];
    let mut residue = vec![0.0f64; n];
    let mut next = vec![0.0f64; n];
    residue[source as usize] = 1.0;
    let mut remaining = 1.0f64;
    while remaining > 1e-14 {
        remaining = 0.0;
        for v in 0..n {
            let r = residue[v];
            if r == 0.0 {
                continue;
            }
            residue[v] = 0.0;
            let out = &graph.out[v];
            if out.is_empty() {
                scores[v] += r;
                continue;
            }
            scores[v] += alpha * r;
            let share = (1.0 - alpha) * r / out.len() as f64;
            for &u in out {
                next[u as usize] += share;
            }
            remaining += (1.0 - alpha) * r;
        }
        std::mem::swap(&mut residue, &mut next);
    }
    for (s, r) in scores.iter_mut().zip(&residue) {
        *s += r;
    }
    scores
}

/// The accuracy contract one answer is held to.
#[derive(Clone, Copy, Debug)]
pub struct Contract {
    pub epsilon: f64,
    pub delta: f64,
    pub p_f: f64,
    /// Additive error the program may add on top of the relative bound:
    /// 0 for fresh answers, the `--dynamic-eps` budget where answers may be
    /// rolled forward by dynamic upgrades.
    pub additive: f64,
}

/// What checking a set of answers against the oracle found.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    pub answers: usize,
    /// Answers whose scores do not sum to 1 (within tolerance) or hold a
    /// negative score.
    pub mass_failures: Vec<String>,
    /// `(answer, node)` pairs with `π(t) > δ`.
    pub guarded: u64,
    /// Guarded pairs outside the error bound.
    pub violations: u64,
    pub worst_rel_err: f64,
}

impl Verdict {
    /// Checks one answer `est` against the oracle's `truth`.
    pub fn add(&mut self, label: &str, est: &[f64], truth: &[f64], c: &Contract) {
        self.answers += 1;
        if est.len() != truth.len() {
            self.mass_failures.push(format!(
                "{label}: {} scores for {} nodes",
                est.len(),
                truth.len()
            ));
            return;
        }
        let sum: f64 = est.iter().sum();
        if (sum - 1.0).abs() > 1e-9 + c.additive {
            self.mass_failures
                .push(format!("{label}: scores sum to {sum}"));
        }
        if let Some((t, s)) = est.iter().enumerate().find(|(_, &s)| s < -c.additive) {
            self.mass_failures
                .push(format!("{label}: score[{t}] = {s} < 0"));
        }
        for (&e, &p) in est.iter().zip(truth) {
            if p > c.delta {
                self.guarded += 1;
                let err = (e - p).abs();
                self.worst_rel_err = self.worst_rel_err.max(err / p);
                if err > c.epsilon * p + c.additive {
                    self.violations += 1;
                }
            }
        }
    }

    /// The violations allowed at failure probability `p_f`.
    pub fn allowed(&self, p_f: f64) -> u64 {
        binomial_tolerance(self.guarded, p_f)
    }

    /// Passes when every answer conserves mass and violations stay within
    /// `p_f` plus the binomial tolerance. Returns the failure reason.
    pub fn result(&self, p_f: f64) -> Result<(), String> {
        if let Some(f) = self.mass_failures.first() {
            return Err(format!("mass check failed: {f}"));
        }
        if self.answers == 0 {
            return Err("no answers were checked".into());
        }
        let allowed = self.allowed(p_f);
        if self.violations > allowed {
            return Err(format!(
                "{} of {} guarded scores outside the (epsilon, delta) bound; at most {allowed} allowed at p_f={p_f:.3e}",
                self.violations, self.guarded
            ));
        }
        Ok(())
    }
}

/// Smallest `v` with `P[Binomial(k, p) > v] <= 1e-6`: a run whose answers
/// meet the guarantee exactly at `p` fails this check with probability at
/// most one in a million.
pub fn binomial_tolerance(k: u64, p: f64) -> u64 {
    if k == 0 || p <= 0.0 {
        return 0;
    }
    let q = 1.0 - p;
    let mut pmf = (k as f64 * q.ln()).exp();
    let mut cdf = pmf;
    let mut v = 0u64;
    while 1.0 - cdf > 1e-6 && v < k {
        pmf *= (k - v) as f64 / (v + 1) as f64 * p / q;
        v += 1;
        cdf += pmf;
    }
    v
}

/// Remedy walks the guarantee needs for residue mass `r_sum`:
/// `n_r = r_sum·(2ε/3+2)·ln(2/p_f)/(ε²δ)` (paper Theorem 3), rounded up.
pub fn walks_needed(r_sum: f64, epsilon: f64, delta: f64, p_f: f64) -> u64 {
    let c = (2.0 * epsilon / 3.0 + 2.0) * (2.0 / p_f).ln() / (epsilon * epsilon * delta);
    (r_sum * c).ceil() as u64
}

/// Whether two score vectors are bit-identical.
pub fn bit_identical(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The read-your-writes and ack properties of a routed run.
#[derive(Clone, Debug, Default)]
pub struct AckLog {
    /// Per connection: acked write versions in the order the acks arrived.
    pub acks: Vec<Vec<u64>>,
    /// Per connection: `(min_version sent, version answered)` for reads.
    pub reads: Vec<Vec<(u64, u64)>>,
}

impl AckLog {
    /// Acked versions strictly increase per connection, together they are
    /// exactly `1..=W` (no version acked twice, none skipped: every version
    /// of this run came from one of the client's writes), and no read came
    /// back below its `min_version`. Returns the highest acked version.
    pub fn check(&self) -> Result<u64, String> {
        for (c, acks) in self.acks.iter().enumerate() {
            if let Some(w) = acks.windows(2).find(|w| w[1] <= w[0]) {
                return Err(format!("connection {c}: ack {} after ack {}", w[1], w[0]));
            }
        }
        let mut all: Vec<u64> = self.acks.iter().flatten().copied().collect();
        all.sort_unstable();
        for (i, &v) in all.iter().enumerate() {
            if v != i as u64 + 1 {
                return Err(format!(
                    "acked versions are not 1..={}: position {i} holds {v}",
                    all.len()
                ));
            }
        }
        for (c, reads) in self.reads.iter().enumerate() {
            if let Some((mv, v)) = reads.iter().find(|(mv, v)| v < mv) {
                return Err(format!(
                    "connection {c}: read at version {v} below min_version {mv}"
                ));
            }
        }
        Ok(all.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{barabasi_albert, directed_power_law};

    fn contract(n: usize) -> Contract {
        Contract {
            epsilon: 0.5,
            delta: 1.0 / n as f64,
            p_f: 1.0 / n as f64,
            additive: 0.0,
        }
    }

    /// The program's own answer on the same graph, through its library.
    fn program_answer(g: &EdgeList, source: u32, seed: u64, threads: usize) -> Vec<f64> {
        let mut b = resacc_graph::GraphBuilder::new(g.n);
        for (u, v) in g.arcs() {
            b.add_edge(u, v);
        }
        let graph = b.build();
        let params = resacc::RwrParams::for_graph(g.n);
        let cfg = resacc::resacc::ResAccConfig::default().with_threads(threads);
        resacc::resacc::ResAcc::new(cfg)
            .query(&graph, source, &params, seed)
            .scores
    }

    #[test]
    fn oracle_agrees_with_a_closed_form() {
        // 0 -> 1 -> 2 with 2 a dead end.
        let g = EdgeList::from_arcs(3, [(0, 1), (1, 2)]);
        let p = rwr(&g, 0, 0.2);
        assert!((p[0] - 0.2).abs() < 1e-12);
        assert!((p[1] - 0.16).abs() < 1e-12);
        assert!((p[2] - 0.64).abs() < 1e-12);
    }

    #[test]
    fn correct_answers_pass_and_a_perturbed_score_fails() {
        let g = barabasi_albert(600, 3, 11);
        let c = contract(g.n);
        let truth = rwr(&g, 5, 0.2);
        let est = program_answer(&g, 5, 99, 1);
        let mut ok = Verdict::default();
        ok.add("fresh", &est, &truth, &c);
        assert!(ok.result(c.p_f).is_ok(), "{:?}", ok.result(c.p_f));
        assert!(ok.guarded > 0);

        // Reverse the ranking of the guarded nodes: the sum and signs still
        // hold, the relative bound does not.
        let mut guarded: Vec<usize> = (0..g.n).filter(|&t| truth[t] > c.delta).collect();
        guarded.sort_by(|&a, &b| truth[a].total_cmp(&truth[b]));
        let mut bad = est.clone();
        for (i, &t) in guarded.iter().enumerate() {
            bad[t] = est[guarded[guarded.len() - 1 - i]];
        }
        let mut v = Verdict::default();
        v.add("perturbed", &bad, &truth, &c);
        assert!(v.mass_failures.is_empty());
        assert!(v.result(c.p_f).is_err());
        let top = guarded[guarded.len() - 1];
        let other = guarded[0];

        // A lost unit of mass fails the sum check.
        let mut lost = est.clone();
        lost[top] *= 0.5;
        let mut v = Verdict::default();
        v.add("lost", &lost, &truth, &c);
        assert!(v.result(c.p_f).is_err());

        // A negative score fails even when the sum is restored.
        let mut neg = est;
        neg[top] += 1e-3;
        neg[other] -= truth[other] + 1e-3;
        let mut v = Verdict::default();
        v.add("negative", &neg, &truth, &c);
        assert!(v.result(c.p_f).is_err());
    }

    #[test]
    fn a_dropped_acked_write_fails_the_oracle() {
        // The server forgot an acked edge into a low-degree node: the
        // oracle's graph at the answer's version disagrees.
        let g0 = directed_power_law(400, 4, 2.2, 5);
        let mut acked = g0.clone();
        let src = (0..g0.n as u32)
            .find(|&u| !g0.out[u as usize].is_empty())
            .unwrap();
        let (mut added, mut t) = (0, 0u32);
        while added < 3 {
            if acked.insert(src, t) {
                added += 1;
            }
            t += 1;
        }
        let c = contract(g0.n);
        let truth = rwr(&acked, src, 0.2);
        let served = program_answer(&g0, src, 3, 1);
        let mut v = Verdict::default();
        v.add("stale graph", &served, &truth, &c);
        assert!(v.result(c.p_f).is_err(), "{v:?}");
        let mut ok = Verdict::default();
        ok.add(
            "current graph",
            &program_answer(&acked, src, 3, 1),
            &truth,
            &c,
        );
        assert!(ok.result(c.p_f).is_ok());
    }

    #[test]
    fn thread_count_results_must_be_bit_identical() {
        let g = directed_power_law(800, 5, 2.2, 9);
        let one = program_answer(&g, 3, 17, 1);
        let two = program_answer(&g, 3, 17, 2);
        assert!(bit_identical(&one, &two));
        // A wrong thread-count result (one ulp off) is caught.
        let mut wrong = two.clone();
        let i = wrong.iter().position(|&s| s > 0.0).unwrap();
        wrong[i] = f64::from_bits(wrong[i].to_bits() + 1);
        assert!(!bit_identical(&one, &wrong));
        assert!(!bit_identical(&one, &program_answer(&g, 3, 18, 2)));
    }

    #[test]
    fn walk_count_formula_catches_short_remedy() {
        let (eps, n) = (0.5, 1000.0);
        let need = walks_needed(0.01, eps, 1.0 / n, 1.0 / n);
        assert!(need > 0);
        assert_eq!(walks_needed(0.0, eps, 1.0 / n, 1.0 / n), 0);
        assert!(walks_needed(0.02, eps, 1.0 / n, 1.0 / n) > need);
    }

    #[test]
    fn binomial_tolerance_is_a_tail_bound() {
        assert_eq!(binomial_tolerance(0, 0.1), 0);
        assert_eq!(binomial_tolerance(10, 1e-9), 0);
        let t = binomial_tolerance(10_000, 0.01);
        assert!(t > 100 && t < 160, "{t}");
    }

    #[test]
    fn ack_log_properties_fail_on_corruption() {
        let good = AckLog {
            acks: vec![vec![1, 3, 4], vec![2, 5]],
            reads: vec![vec![(0, 0), (3, 3)], vec![(2, 4)]],
        };
        assert_eq!(good.check(), Ok(5));
        let mut reorder = good.clone();
        reorder.acks[0] = vec![3, 1, 4];
        assert!(reorder.check().is_err());
        let mut dup = good.clone();
        dup.acks[1] = vec![2, 4];
        assert!(dup.check().is_err());
        let mut gap = good.clone();
        gap.acks[1] = vec![2, 6];
        assert!(gap.check().is_err());
        let mut stale = good;
        stale.reads[1].push((5, 4));
        assert!(stale.check().is_err());
    }
}
