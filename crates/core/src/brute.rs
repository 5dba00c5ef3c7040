//! Brute-force oracles: query evaluation by definition.
//!
//! These enumerate the whole possible-world space (`support(μ)`), apply
//! the transducer to each world, and aggregate — exactly the semantics of
//! §3.1.2, with exponential cost. They are the ground truth against which
//! every engine algorithm is tested, and the only way to rank by *true*
//! confidence for general transducers (which Theorem 4.4 shows is
//! inherently intractable).

use std::collections::BTreeMap;

use transmark_automata::SymbolId;
use transmark_markov::numeric::KahanSum;
use transmark_markov::support::support;
use transmark_markov::MarkovSequence;

use crate::confidence::check_inputs;
use crate::error::EngineError;
use crate::transducer::Transducer;

/// The full evaluation result `conf : A^ω(μ) → (0, 1]` by brute force.
///
/// Exponential in `μ`'s length; intended for tests, examples and the
/// experiment harness on small instances.
pub fn evaluate(
    t: &Transducer,
    m: &MarkovSequence,
) -> Result<BTreeMap<Vec<SymbolId>, f64>, EngineError> {
    check_inputs(t, m.n_symbols(), None)?;
    let mut acc: BTreeMap<Vec<SymbolId>, KahanSum> = BTreeMap::new();
    for (s, p) in support(m) {
        for o in t.transduce_all(&s) {
            acc.entry(o).or_default().add(p);
        }
    }
    Ok(acc.into_iter().map(|(o, k)| (o, k.total())).collect())
}

/// The answers sorted by decreasing confidence (ties broken
/// lexicographically), with their confidences — the paper's "gold
/// standard" order, computable only by brute force in general.
pub fn ranked_by_confidence(
    t: &Transducer,
    m: &MarkovSequence,
) -> Result<Vec<(Vec<SymbolId>, f64)>, EngineError> {
    let mut v: Vec<(Vec<SymbolId>, f64)> = evaluate(t, m)?.into_iter().collect();
    v.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("no NaN")
            .then_with(|| a.0.cmp(&b.0))
    });
    Ok(v)
}

/// The top answer by confidence and its confidence (brute force).
pub fn top_by_confidence(
    t: &Transducer,
    m: &MarkovSequence,
) -> Result<Option<(Vec<SymbolId>, f64)>, EngineError> {
    Ok(ranked_by_confidence(t, m)?.into_iter().next())
}

/// `E_max(o)` by brute force: the max-probability world transduced to `o`.
pub fn emax(t: &Transducer, m: &MarkovSequence, o: &[SymbolId]) -> Result<f64, EngineError> {
    check_inputs(t, m.n_symbols(), Some(o))?;
    let mut best = 0.0f64;
    for (s, p) in support(m) {
        if p > best && t.transduce_all(&s).iter().any(|out| out == o) {
            best = p;
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use transmark_automata::Alphabet;
    use transmark_markov::MarkovSequenceBuilder;

    fn sym(i: u32) -> SymbolId {
        SymbolId(i)
    }

    /// μ over {a,b}, n=2: uniform first symbol; a→a w.p. 1; b uniform.
    fn chain() -> MarkovSequence {
        let alphabet = Alphabet::of_chars("ab");
        let (a, b) = (alphabet.sym("a"), alphabet.sym("b"));
        MarkovSequenceBuilder::new(alphabet, 2)
            .initial(a, 0.5)
            .initial(b, 0.5)
            .transition(0, a, a, 1.0)
            .transition(0, b, a, 0.5)
            .transition(0, b, b, 0.5)
            .build()
            .unwrap()
    }

    /// Identity transducer over {a,b}.
    fn identity() -> Transducer {
        let a = Alphabet::of_chars("ab");
        let mut b = Transducer::builder(a.clone(), a);
        let q = b.add_state(true);
        for s in 0..2u32 {
            b.add_transition(q, sym(s), q, &[sym(s)]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn identity_evaluation_recovers_string_distribution() {
        let m = chain();
        let t = identity();
        let conf = evaluate(&t, &m).unwrap();
        assert_eq!(conf.len(), 3);
        assert!((conf[&vec![sym(0), sym(0)]] - 0.5).abs() < 1e-12);
        assert!((conf[&vec![sym(1), sym(0)]] - 0.25).abs() < 1e-12);
        assert!((conf[&vec![sym(1), sym(1)]] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn ranking_is_by_decreasing_confidence() {
        let m = chain();
        let t = identity();
        let ranked = ranked_by_confidence(&t, &m).unwrap();
        assert_eq!(ranked[0].0, vec![sym(0), sym(0)]);
        assert_eq!(top_by_confidence(&t, &m).unwrap().unwrap().1, 0.5);
        for w in ranked.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn brute_emax_is_best_single_world() {
        let m = chain();
        let t = identity();
        // Identity: E_max(o) = p(o).
        assert!((emax(&t, &m, &[sym(1), sym(0)]).unwrap() - 0.25).abs() < 1e-12);
        assert_eq!(emax(&t, &m, &[sym(0), sym(1)]).unwrap(), 0.0);
    }
}
