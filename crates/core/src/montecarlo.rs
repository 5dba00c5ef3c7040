//! Monte-Carlo confidence estimation.
//!
//! For nondeterministic, non-uniform transducers, exact confidence is
//! FP^#P-complete (Prop. 4.7, Thm 4.9), and the paper leaves the existence
//! of an FPRAS open (it would settle a long-standing question about
//! counting strings in regular languages \[28\]). What *is* easy is an
//! additive-error estimator: `conf(o) = E[ 1{S →[A^ω]→ o} ]`, so sampling
//! worlds from `μ` and testing membership (a polynomial reachability DP
//! per sample) gives an unbiased estimate with `O(1/√N)` standard error.

use rand::{Rng, RngExt as _};
use transmark_automata::{StateId, SymbolId};
use transmark_kernel::{advance_string, count_layers, Bool, StepGraph, Workspace};
use transmark_markov::{MarkovSequence, StepSource};

use crate::confidence::check_source_inputs;
use crate::error::EngineError;
use crate::kernelize::output_step_graph;
use crate::transducer::Transducer;

/// An estimate with its standard error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McEstimate {
    /// The sample mean of the membership indicator.
    pub estimate: f64,
    /// The standard error `√(p̂(1-p̂)/N)`.
    pub std_error: f64,
    /// Number of samples drawn.
    pub samples: usize,
}

/// Tests whether some accepting run of `A^ω` on the concrete string `s`
/// emits exactly `o` — a boolean DP over (state, output position),
/// `O(|s|·|Q|·|o|·b)`.
pub fn transduces_to(t: &Transducer, s: &[SymbolId], o: &[SymbolId]) -> bool {
    let graph = output_step_graph(t, o);
    let mut ws = Workspace::new();
    transduces_to_with(t, &graph, &mut ws, s, o.len())
}

/// [`transduces_to`] against a prebuilt output step graph and workspace —
/// the sampling loop reuses one graph across tens of thousands of worlds
/// instead of re-deriving every emission/output-prefix check per sample.
pub(crate) fn transduces_to_with(
    t: &Transducer,
    graph: &StepGraph,
    ws: &mut Workspace<bool>,
    s: &[SymbolId],
    o_len: usize,
) -> bool {
    let nq = t.n_states();
    let width = o_len + 1;
    ws.reset(nq * width, false);
    ws.cur_mut()[t.initial().index() * width] = true;
    for &sym in s {
        ws.clear_next(false);
        let (cur, next) = ws.buffers();
        advance_string::<Bool>(graph, sym.0, cur, next);
        ws.swap();
    }
    count_layers(s.len() as u64);
    let cur = ws.cur();
    (0..nq).any(|q| t.is_accepting(StateId(q as u32)) && cur[q * width + o_len])
}

/// The sampling loop behind
/// [`BoundQuery::estimate_confidence`](crate::plan::BoundQuery::estimate_confidence),
/// over an optionally precompiled membership graph.
/// `graph` must be `Some(output_step_graph(t, o))` exactly when `t` is
/// nondeterministic (the deterministic fast path needs no graph).
pub(crate) fn estimate_confidence_impl<R: Rng + ?Sized>(
    t: &Transducer,
    m: &MarkovSequence,
    graph: Option<&StepGraph>,
    o: &[SymbolId],
    samples: usize,
    rng: &mut R,
) -> McEstimate {
    assert!(samples > 0, "at least one sample is required");
    let mut hits = 0usize;
    let mut ws: Workspace<bool> = Workspace::new();
    for _ in 0..samples {
        let s = m.sample(rng);
        let hit = match graph {
            None => t.transduce_deterministic(&s).as_deref() == Some(o),
            Some(g) => transduces_to_with(t, g, &mut ws, &s, o.len()),
        };
        hits += usize::from(hit);
    }
    let p = hits as f64 / samples as f64;
    McEstimate {
        estimate: p,
        std_error: (p * (1.0 - p) / samples as f64).sqrt(),
        samples,
    }
}

/// One categorical draw from a dense probability row: the same
/// walk-and-subtract selection `MarkovSequence::sample` performs (zero
/// entries absorb none of the uniform draw; rounding past the end falls
/// back to the last positive entry). Consumes exactly one `rng.random()`.
fn draw_row<R: Rng + ?Sized>(row: &[f64], rng: &mut R) -> usize {
    let mut u: f64 = rng.random();
    let mut last = None;
    for (to, &p) in row.iter().enumerate() {
        if p > 0.0 {
            last = Some(to);
            if u < p {
                return to;
            }
            u -= p;
        }
    }
    last.expect("distribution has positive mass")
}

/// [`BoundQuery::estimate_confidence`](crate::plan::BoundQuery::estimate_confidence)
/// over a streamed source: all `samples` worlds advance together, one
/// pulled layer at a time, with an online Boolean membership DP per world
/// — memory is `O(samples · |Q| · |o|)`, independent of `n`.
///
/// The estimator is the same unbiased mean-of-indicators, but the RNG
/// draw order is necessarily *sample-major per layer* (world `j`'s `i`-th
/// symbol is drawn after every world's `i−1`-th), whereas
/// the in-memory estimator draws each world to completion before the
/// next. For a given seed the two therefore produce different (equally
/// valid) estimates; this function itself is deterministic given the
/// seed, and bit-identical across in-memory, text, and binary sources.
pub fn estimate_confidence_source<S: StepSource, R: Rng + ?Sized>(
    t: &Transducer,
    src: &mut S,
    o: &[SymbolId],
    samples: usize,
    rng: &mut R,
) -> Result<McEstimate, EngineError> {
    check_source_inputs(t, src, Some(o))?;
    assert!(samples > 0, "at least one sample is required");
    let graph = output_step_graph(t, o);
    let k = src.alphabet().len();
    let nq = t.n_states();
    let width = o.len() + 1;
    let sz = nq * width;

    // World j's current node, and its membership-DP layer (the same
    // Boolean (state, output position) reachability `transduces_to` runs,
    // folded online instead of over a stored string).
    let mut cur_sym: Vec<usize> = Vec::with_capacity(samples);
    let mut states = vec![false; samples * sz];
    let mut next_buf = vec![false; sz];
    let mut seed_buf = vec![false; sz];
    for j in 0..samples {
        let first = draw_row(src.initial(), rng);
        cur_sym.push(first);
        seed_buf.fill(false);
        seed_buf[t.initial().index() * width] = true;
        next_buf.fill(false);
        advance_string::<Bool>(&graph, first as u32, &seed_buf, &mut next_buf);
        states[j * sz..(j + 1) * sz].copy_from_slice(&next_buf);
    }
    count_layers(samples as u64);
    while let Some(matrix) = src.next_step()? {
        for j in 0..samples {
            let from = cur_sym[j];
            let to = draw_row(&matrix[from * k..(from + 1) * k], rng);
            cur_sym[j] = to;
            next_buf.fill(false);
            advance_string::<Bool>(
                &graph,
                to as u32,
                &states[j * sz..(j + 1) * sz],
                &mut next_buf,
            );
            states[j * sz..(j + 1) * sz].copy_from_slice(&next_buf);
        }
        count_layers(samples as u64);
    }
    let mut hits = 0usize;
    for j in 0..samples {
        let st = &states[j * sz..(j + 1) * sz];
        let hit = (0..nq).any(|q| t.is_accepting(StateId(q as u32)) && st[q * width + o.len()]);
        hits += usize::from(hit);
    }
    let p = hits as f64 / samples as f64;
    Ok(McEstimate {
        estimate: p,
        std_error: (p * (1.0 - p) / samples as f64).sqrt(),
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::prepare;
    use rand::{rngs::StdRng, SeedableRng};
    use transmark_automata::Alphabet;
    use transmark_markov::MarkovSequenceBuilder;

    fn sym(i: u32) -> SymbolId {
        SymbolId(i)
    }

    /// Nondeterministic suffix-copier over {a,b} (see transducer tests).
    fn suffix_guesser() -> Transducer {
        let a = Alphabet::of_chars("ab");
        let mut b = Transducer::builder(a.clone(), a);
        let skip = b.add_state(true);
        let copy = b.add_state(true);
        b.set_initial(skip);
        for s in 0..2u32 {
            b.add_transition(skip, sym(s), skip, &[]).unwrap();
            b.add_transition(skip, sym(s), copy, &[sym(s)]).unwrap();
            b.add_transition(copy, sym(s), copy, &[sym(s)]).unwrap();
        }
        b.build().unwrap()
    }

    fn uniform_chain(n: usize) -> MarkovSequence {
        let a = Alphabet::of_chars("ab");
        MarkovSequenceBuilder::new(a, n)
            .uniform_all()
            .build()
            .unwrap()
    }

    #[test]
    fn transduces_to_agrees_with_definition() {
        let t = suffix_guesser();
        let s = [sym(0), sym(1), sym(0)];
        let all = t.transduce_all(&s);
        // Check several candidate outputs.
        for o in [
            vec![],
            vec![sym(0)],
            vec![sym(1), sym(0)],
            vec![sym(0), sym(1), sym(0)],
            vec![sym(1)],
        ] {
            assert_eq!(transduces_to(&t, &s, &o), all.contains(&o), "output {o:?}");
        }
    }

    #[test]
    fn estimate_converges_to_brute_force() {
        let t = suffix_guesser();
        let m = uniform_chain(3);
        let o = vec![sym(0)]; // suffix "a"
        let exact = crate::brute::evaluate(&t, &m).unwrap()[&o];
        let mut rng = StdRng::seed_from_u64(99);
        let est = prepare(&t)
            .bind(&m)
            .unwrap()
            .estimate_confidence(&o, 20_000, &mut rng)
            .unwrap();
        assert!(
            (est.estimate - exact).abs() < 4.0 * est.std_error + 1e-9,
            "estimate {} vs exact {exact} (se {})",
            est.estimate,
            est.std_error
        );
    }

    #[test]
    fn deterministic_fast_path_matches() {
        // Identity transducer (deterministic).
        let a = Alphabet::of_chars("ab");
        let mut b = Transducer::builder(a.clone(), a);
        let q = b.add_state(true);
        for s in 0..2u32 {
            b.add_transition(q, sym(s), q, &[sym(s)]).unwrap();
        }
        let t = b.build().unwrap();
        let m = uniform_chain(2);
        let mut rng = StdRng::seed_from_u64(7);
        let o = vec![sym(0), sym(1)];
        let est = prepare(&t)
            .bind(&m)
            .unwrap()
            .estimate_confidence(&o, 20_000, &mut rng)
            .unwrap();
        assert!((est.estimate - 0.25).abs() < 0.02);
    }
}
