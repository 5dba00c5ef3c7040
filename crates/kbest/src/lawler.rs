//! The Lawler–Murty ranked-enumeration procedure.
//!
//! Lawler \[38\] and Murty \[43\] reduce "enumerate all answers in decreasing
//! score" to "find the single best answer subject to a constraint": after
//! emitting the best answer of a subspace, the subspace minus that answer
//! is partitioned into disjoint constrained subspaces, the best answer of
//! each is computed, and all are pushed into a priority queue.
//!
//! The paper uses this technique twice, with its *prefix constraints* as
//! the constraint class: Theorem 4.3 (transducer answers by decreasing
//! `E_max`) and Lemma 5.10 (s-projector answers by decreasing `I_max`).
//! Both instantiate [`PartitionSpace`].
//!
//! Correctness requires the usual two properties, which implementors must
//! guarantee:
//!
//! 1. `split(c, a)` partitions `{answers of c} ∖ {a}` into *disjoint*
//!    subspaces (no duplicates, nothing lost);
//! 2. `best(c)` returns an answer of maximal score within `c`, and
//!    `best_of_split` returns exactly what `best` would for each child.
//!
//! Under these, the iterator yields every answer exactly once, in
//! non-increasing score, with delay one split probe
//! ([`PartitionSpace::best_of_split`]) plus heap maintenance. By default
//! that probe is `|split|` calls to `best`; a space whose children share
//! work may answer the whole split at once (Theorem 4.3 does, in one
//! Viterbi pass). Space grows with the number of emitted answers —
//! exactly the trade-off the paper notes for Theorem 4.3.
//!
//! Probing is lazy. Emitting answer `i` splits its subspace right away
//! (constraint arithmetic, no optimizer call) but keeps the split
//! *pending*; its probe runs at the start of the call that asks for
//! answer `i+1`, before its pop. The children's results are pushed in
//! split order, so the heap sees the same pushes and pops in the same
//! order as an eager driver: emission order, ties and scores are
//! unchanged, and the delay bound is the same with answer `i`'s probe
//! charged to answer `i+1`. A caller that stops after `k` answers pays
//! for `k−1` split probes plus the root probe: the top-1 costs exactly
//! one `best`.

use std::collections::BinaryHeap;

use crate::Score;

/// A constraint-partitionable answer space with a constrained optimizer.
pub trait PartitionSpace {
    /// The answer type (e.g. an output string of a transducer). The
    /// driver keeps a copy of each emitted answer until its split is
    /// probed.
    type Answer: Clone;
    /// A description of a subspace of answers.
    type Constraint;

    /// The unconstrained space.
    fn root(&self) -> Self::Constraint;

    /// The best `(answer, log-score)` within `constraint`, or `None` if
    /// the subspace is empty. Scores of `-∞` are treated as empty.
    fn best(&mut self, constraint: &Self::Constraint) -> Option<(Self::Answer, f64)>;

    /// Partitions `constraint ∖ {answer}` into disjoint subspaces.
    /// `answer` is the value previously returned by `best(constraint)`.
    fn split(
        &mut self,
        constraint: &Self::Constraint,
        answer: &Self::Answer,
    ) -> Vec<Self::Constraint>;

    /// The best answer of every child of one split, in `children` order:
    /// `children` is `split(parent, answer)`. Each result must equal what
    /// `best(child)` returns. The default makes those calls one by one; a
    /// space whose children share work (Theorem 4.3's share the answer's
    /// prefixes) may probe them all at once.
    fn best_of_split(
        &mut self,
        _parent: &Self::Constraint,
        _answer: &Self::Answer,
        children: &[Self::Constraint],
    ) -> Vec<Option<(Self::Answer, f64)>> {
        children.iter().map(|c| self.best(c)).collect()
    }
}

struct Entry<S: PartitionSpace> {
    score: Score,
    answer: S::Answer,
    constraint: S::Constraint,
}

impl<S: PartitionSpace> PartialEq for Entry<S> {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score
    }
}
impl<S: PartitionSpace> Eq for Entry<S> {}
impl<S: PartitionSpace> PartialOrd for Entry<S> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<S: PartitionSpace> Ord for Entry<S> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score.cmp(&other.score)
    }
}

/// The split of the last emitted answer, not yet probed.
struct Split<S: PartitionSpace> {
    parent: S::Constraint,
    answer: S::Answer,
    children: Vec<S::Constraint>,
}

/// Iterator produced by the Lawler–Murty procedure: yields
/// `(answer, log-score)` in non-increasing score.
pub struct LawlerMurty<S: PartitionSpace> {
    space: S,
    frontier: BinaryHeap<Entry<S>>,
    pending: Option<Split<S>>,
}

impl<S: PartitionSpace> LawlerMurty<S> {
    /// Starts enumeration over the whole space (one `best` probe).
    pub fn new(space: S) -> Self {
        let mut it = Self {
            space,
            frontier: BinaryHeap::new(),
            pending: None,
        };
        let root = it.space.root();
        let best = it.space.best(&root);
        it.push(root, best);
        it
    }

    /// Number of probed subspaces waiting in the frontier (for
    /// space-usage experiments). The subspaces of the last emitted answer
    /// are probed only when the next answer is asked for, so they are not
    /// counted yet.
    pub fn frontier_len(&self) -> usize {
        self.frontier.len()
    }

    /// Queues the probed best answer of `constraint`, unless the subspace
    /// is empty.
    fn push(&mut self, constraint: S::Constraint, best: Option<(S::Answer, f64)>) {
        if let Some((answer, score)) = best {
            if score > f64::NEG_INFINITY {
                self.frontier.push(Entry {
                    score: Score::new(score),
                    answer,
                    constraint,
                });
            }
        }
    }
}

impl<S: PartitionSpace> Iterator for LawlerMurty<S> {
    type Item = (S::Answer, f64);

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(Split {
            parent,
            answer,
            children,
        }) = self.pending.take()
        {
            let bests = self.space.best_of_split(&parent, &answer, &children);
            assert_eq!(bests.len(), children.len(), "one result per child");
            for (child, best) in children.into_iter().zip(bests) {
                self.push(child, best);
            }
        }
        let Entry {
            score,
            answer,
            constraint,
        } = self.frontier.pop()?;
        let children = self.space.split(&constraint, &answer);
        if !children.is_empty() {
            self.pending = Some(Split {
                parent: constraint,
                answer: answer.clone(),
                children,
            });
        }
        Some((answer, score.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy space: answers are the integers `0..n` with given scores;
    /// constraints are index ranges; `best` scans, `split` removes the
    /// argmax by splitting the range around it.
    #[derive(Default)]
    struct RangeSpace {
        scores: Vec<f64>,
        best_calls: usize,
        /// `|split(answer)|` of every `split` call, in call order.
        split_sizes: Vec<usize>,
    }

    fn range_space(scores: Vec<f64>) -> RangeSpace {
        RangeSpace {
            scores,
            ..RangeSpace::default()
        }
    }

    impl PartitionSpace for RangeSpace {
        type Answer = usize;
        type Constraint = (usize, usize); // half-open range

        fn root(&self) -> (usize, usize) {
            (0, self.scores.len())
        }

        fn best(&mut self, &(lo, hi): &(usize, usize)) -> Option<(usize, f64)> {
            self.best_calls += 1;
            (lo..hi)
                .map(|i| (i, self.scores[i]))
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        }

        fn split(&mut self, &(lo, hi): &(usize, usize), &a: &usize) -> Vec<(usize, usize)> {
            let mut out = Vec::new();
            if lo < a {
                out.push((lo, a));
            }
            if a + 1 < hi {
                out.push((a + 1, hi));
            }
            self.split_sizes.push(out.len());
            out
        }
    }

    /// The reference driver: probes every subspace of an answer as soon
    /// as it emits that answer.
    fn eager<S: PartitionSpace>(space: &mut S) -> Vec<(S::Answer, f64)> {
        let mut frontier = BinaryHeap::new();
        let probe = |space: &mut S, frontier: &mut BinaryHeap<Entry<S>>, c: S::Constraint| {
            if let Some((answer, score)) = space.best(&c) {
                if score > f64::NEG_INFINITY {
                    frontier.push(Entry {
                        score: Score::new(score),
                        answer,
                        constraint: c,
                    });
                }
            }
        };
        let root = space.root();
        probe(space, &mut frontier, root);
        let mut out = Vec::new();
        while let Some(Entry {
            score,
            answer,
            constraint,
        }) = frontier.pop()
        {
            for sub in space.split(&constraint, &answer) {
                probe(space, &mut frontier, sub);
            }
            out.push((answer, score.0));
        }
        out
    }

    /// Scores drawn from a handful of values (plus `-∞`), so most answers
    /// tie with several others.
    fn tied_scores(rng: &mut impl rand::Rng, n: usize) -> Vec<f64> {
        use rand::RngExt;
        (0..n)
            .map(|_| match rng.random_range(0..5u32) {
                4 => f64::NEG_INFINITY,
                v => -f64::from(v) * 0.5,
            })
            .collect()
    }

    #[test]
    fn enumerates_in_decreasing_score_without_duplicates() {
        let scores = vec![0.3, -1.0, 2.5, 2.5, 0.0, -3.5, 1.0];
        let it = LawlerMurty::new(range_space(scores.clone()));
        let got: Vec<(usize, f64)> = it.collect();
        assert_eq!(got.len(), scores.len());
        // Non-increasing scores.
        for w in got.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        // Every answer exactly once.
        let mut ids: Vec<usize> = got.iter().map(|(i, _)| *i).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..scores.len()).collect::<Vec<_>>());
        // Scores match.
        for (i, s) in &got {
            assert_eq!(*s, scores[*i]);
        }
    }

    #[test]
    fn neg_infinity_answers_are_suppressed() {
        let scores = vec![f64::NEG_INFINITY, 1.0, f64::NEG_INFINITY];
        let got: Vec<_> = LawlerMurty::new(range_space(scores)).collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 1);
    }

    #[test]
    fn empty_space_yields_nothing() {
        let got: Vec<_> = LawlerMurty::new(range_space(vec![])).collect();
        assert!(got.is_empty());
    }

    #[test]
    fn top_k_early_stop_is_cheap() {
        // Taking k answers probes the root and the subspaces of the first
        // k−1 answers, nothing more.
        let scores: Vec<f64> = (0..1000).map(|i| -(i as f64)).collect();
        let mut it = LawlerMurty::new(range_space(scores));
        for _ in 0..5 {
            it.next();
        }
        let probed: usize = it.space.split_sizes[..4].iter().sum();
        assert_eq!(it.space.best_calls, 1 + probed);
    }

    #[test]
    fn lazy_probing_matches_the_eager_driver_exactly() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x1a3b);
        for _ in 0..200 {
            let n = rand::RngExt::random_range(&mut rng, 0..24usize);
            let scores = tied_scores(&mut rng, n);
            let want = eager(&mut range_space(scores.clone()));
            let bits = |v: &[(usize, f64)]| -> Vec<(usize, u64)> {
                v.iter().map(|&(a, s)| (a, s.to_bits())).collect()
            };

            let mut it = LawlerMurty::new(range_space(scores.clone()));
            let got: Vec<_> = it.by_ref().collect();
            assert_eq!(bits(&got), bits(&want), "scores {scores:?}");
            let all: usize = it.space.split_sizes.iter().sum();
            assert_eq!(it.space.best_calls, 1 + all);

            for k in 1..=want.len() {
                let mut it = LawlerMurty::new(range_space(scores.clone()));
                let got: Vec<_> = it.by_ref().take(k).collect();
                assert_eq!(bits(&got), bits(&want[..k]));
                assert_eq!(it.space.split_sizes.len(), k);
                let probed: usize = it.space.split_sizes[..k - 1].iter().sum();
                assert_eq!(it.space.best_calls, 1 + probed, "k = {k}");
            }
        }
    }
}
