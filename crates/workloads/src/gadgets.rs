//! Hardness-gadget families: instances where heuristic ranking provably
//! diverges from true-confidence ranking.
//!
//! The paper's inapproximability results (Theorems 4.4, 4.5, 5.3) are
//! worst-case reductions whose gadget details live in the unavailable
//! extended version. These families have the same *shape* — confidence
//! mass split across exponentially many evidences, so the best single
//! evidence (`E_max`) or best single occurrence (`I_max`) misjudges the
//! answer — and make the divergence *measurable*, which is what the
//! Table 2 row-3 experiments report:
//!
//! * [`emax_gap`] — a **one-state Mealy machine** (the exact machine class
//!   of Theorem 4.4's statement) where the `E_max`-top answer is
//!   exponentially worse than the confidence-top answer: the observed
//!   ratio is `(conf of true top)/(conf of E_max top) = 1.5ⁿ`.
//! * [`projector_gap`] — a **fixed deterministic projector** (Theorem
//!   4.5's machine class, `|Q| = 1`) with the same exponential behaviour.
//! * [`imax_gap`] — a **fixed simple s-projector** (Theorem 5.3's class)
//!   where `conf/I_max ≈ (1 - 1/e)·n`, exhibiting the linear (not
//!   constant) gap that rules out constant-factor approximation, while
//!   staying within the Theorem 5.2 upper bound of `n`.

use std::sync::Arc;

use transmark_automata::Alphabet;
use transmark_core::transducer::Transducer;
use transmark_markov::{MarkovSequence, MarkovSequenceBuilder};
use transmark_sproj::SProjector;

/// Builds an i.i.d. Markov sequence: every position distributed as `dist`
/// (a valid distribution over the alphabet).
fn iid_chain(alphabet: Arc<Alphabet>, n: usize, dist: &[f64]) -> MarkovSequence {
    let k = alphabet.len();
    let mut b = MarkovSequenceBuilder::new(alphabet, n).initial_dist(dist);
    for i in 0..n - 1 {
        for from in 0..k {
            for to in 0..k {
                b = b.transition(
                    i,
                    transmark_automata::SymbolId(from as u32),
                    transmark_automata::SymbolId(to as u32),
                    dist[to],
                );
            }
        }
    }
    b.build().expect("iid chain is valid")
}

/// **Theorem 4.4 shape** — a one-state Mealy machine and a Markov
/// sequence of length `n` where `E_max` ranking is exponentially wrong.
///
/// `Σ = {a, b₁, b₂}` with i.i.d. marginals `P(a) = 0.4`,
/// `P(b₁) = P(b₂) = 0.3`; the machine emits `x` for `a` and `y` for both
/// `bᵢ`. For an output `o ∈ {x,y}ⁿ`:
/// `conf(o) = 0.4^{#x} · 0.6^{#y}` but `E_max(o) = 0.4^{#x} · 0.3^{#y}` —
/// the `y`-mass is split over `2^{#y}` evidences. The confidence-top
/// answer is `yⁿ` (conf `0.6ⁿ`), the `E_max`-top answer is `xⁿ`
/// (conf `0.4ⁿ`): ratio `1.5ⁿ`.
pub fn emax_gap(n: usize) -> (Transducer, MarkovSequence) {
    let input = Arc::new(Alphabet::from_names(["a", "b1", "b2"]));
    let output = Arc::new(Alphabet::from_names(["x", "y"]));
    let m = iid_chain(Arc::clone(&input), n, &[0.4, 0.3, 0.3]);
    let mut b = Transducer::builder(input.clone(), output.clone());
    let q = b.add_state(true);
    let x = [output.sym("x")];
    let y = [output.sym("y")];
    b.add_transition(q, input.sym("a"), q, &x).expect("valid");
    b.add_transition(q, input.sym("b1"), q, &y).expect("valid");
    b.add_transition(q, input.sym("b2"), q, &y).expect("valid");
    let t = b.build().expect("one-state Mealy machine");
    debug_assert!(t.is_mealy());
    (t, m)
}

/// The analytically known ratio of [`emax_gap`]:
/// `conf(confidence-top) / conf(E_max-top) = 1.5ⁿ`.
pub fn emax_gap_expected_ratio(n: usize) -> f64 {
    1.5f64.powi(n as i32)
}

/// **Theorem 4.5 shape** — a fixed deterministic *projector* (`|Q| = 1`,
/// emissions are the read symbol or `ε`) with the same exponential gap.
///
/// `Σ = {a, b₁, b₂, c}`: `a` is copied; `b₁`, `b₂`, `c` are dropped.
/// With i.i.d. `P(a) = 0.25, P(b₁) = P(b₂) = 0.25, P(c) = 0.25`, the
/// output `aᵏ` for small `k` aggregates exponentially many dropped
/// configurations while long `aᵏ` outputs have a single evidence each.
pub fn projector_gap(n: usize) -> (Transducer, MarkovSequence) {
    let input = Arc::new(Alphabet::from_names(["a", "b1", "b2", "c"]));
    let m = iid_chain(Arc::clone(&input), n, &[0.25, 0.25, 0.25, 0.25]);
    let mut b = Transducer::builder(input.clone(), Arc::clone(&input));
    let q = b.add_state(true);
    b.add_transition(q, input.sym("a"), q, &[input.sym("a")])
        .expect("valid");
    b.add_transition(q, input.sym("b1"), q, &[]).expect("valid");
    b.add_transition(q, input.sym("b2"), q, &[]).expect("valid");
    b.add_transition(q, input.sym("c"), q, &[]).expect("valid");
    let t = b.build().expect("one-state projector");
    debug_assert!(t.is_projector() && t.is_deterministic());
    (t, m)
}

/// **Theorem 5.3 shape** — a fixed *simple* s-projector `[*]a[*]` and an
/// i.i.d. sequence with `P(a) = 1/n`: the answer `"a"` has
/// `conf = 1 - (1 - 1/n)ⁿ → 1 - 1/e` but `I_max = 1/n` (each single
/// occurrence is equally unlikely), so `conf / I_max ≈ 0.63·n` — the
/// linear gap regime of §5.
pub fn imax_gap(n: usize) -> (SProjector, MarkovSequence) {
    assert!(n >= 1);
    let alphabet = Arc::new(Alphabet::of_chars("ab"));
    let p_a = 1.0 / n as f64;
    let m = iid_chain(Arc::clone(&alphabet), n, &[p_a, 1.0 - p_a]);
    let pattern = transmark_automata::Dfa::word(2, &[alphabet.sym("a")]);
    let p = SProjector::simple(alphabet, pattern).expect("simple projector");
    (p, m)
}

/// The analytically known quantities of [`imax_gap`]:
/// `(conf("a"), I_max("a"))`.
pub fn imax_gap_expected(n: usize) -> (f64, f64) {
    let p = 1.0 / n as f64;
    (1.0 - (1.0 - p).powi(n as i32), p)
}

/// **Theorem 4.9 regime** — a *fixed* non-selective, non-uniform
/// transducer probing the exact algorithm's data complexity.
///
/// Two states, both accepting; on `a` emit `x` or `ε`, on `b` emit `xx`
/// or `ε` (nondeterministic drop-or-keep with weights 1 and 2). This is
/// the regime where neither Theorem 4.6 (nondeterministic) nor
/// Theorem 4.8 (non-uniform) applies, so the engine falls back to the
/// exact configuration-set algorithm, and the per-string reachable
/// (state, output-position) sets — here, subset sums of {1,2}-weights —
/// grow with the data, unlike the deterministic case singletons
///
/// On this benign family the reachable sets collapse to near-intervals,
/// so the measured growth is only polynomial (superlinear); the
/// *exponential* worst case that Theorem 4.9's FP^#P-hardness implies
/// requires the adversarial structure of its reduction (counting
/// monotone bipartite 2-DNF assignments), whose gadget details are in
/// the unavailable extended version — see DESIGN.md's substitutions.
///
/// Returns `(transducer, μ[n] uniform over {a,b}, the output x^{⌊3n/4⌋})`.
pub fn confidence_blowup(
    n: usize,
) -> (
    Transducer,
    MarkovSequence,
    Vec<transmark_automata::SymbolId>,
) {
    use transmark_automata::SymbolId;
    let input = Arc::new(Alphabet::of_chars("ab"));
    let output = Arc::new(Alphabet::of_chars("x"));
    let m = iid_chain(Arc::clone(&input), n, &[0.5, 0.5]);
    let x = output.sym("x");
    let mut b = Transducer::builder(input.clone(), output);
    let keep = b.add_state(true);
    let drop_ = b.add_state(true);
    let (a_sym, b_sym) = (input.sym("a"), input.sym("b"));
    for from in [keep, drop_] {
        b.add_transition(from, a_sym, keep, &[x]).expect("valid");
        b.add_transition(from, a_sym, drop_, &[]).expect("valid");
        b.add_transition(from, b_sym, keep, &[x, x]).expect("valid");
        b.add_transition(from, b_sym, drop_, &[]).expect("valid");
    }
    let t = b.build().expect("fixed blow-up transducer");
    debug_assert!(!t.is_selective());
    debug_assert_eq!(t.uniform_emission(), None);
    let target = vec![SymbolId(x.0); (3 * n) / 4];
    (t, m, target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use transmark_core::brute;
    use transmark_core::prepare;
    use transmark_markov::numeric::approx_eq;
    use transmark_sproj::enumerate::imax_of_output;
    use transmark_sproj::sproj_confidence;

    #[test]
    fn emax_gap_has_the_predicted_exponential_ratio() {
        for n in [2usize, 4, 6] {
            let (t, m) = emax_gap(n);
            // E_max-top answer.
            let bound = prepare(&t).bind(&m).unwrap();
            let top_e = bound.top().unwrap().expect("answers exist");
            // Confidence-top answer (brute force).
            let (top_c, conf_c) = brute::top_by_confidence(&t, &m).unwrap().expect("answers");
            let conf_of_top_e = bound.confidence(&top_e.output).unwrap();
            let ratio = conf_c / conf_of_top_e;
            assert!(
                approx_eq(ratio, emax_gap_expected_ratio(n), 1e-9, 1e-7),
                "n={n}: ratio {ratio} != {}",
                emax_gap_expected_ratio(n)
            );
            // The orders really disagree: E_max picks all-x, confidence all-y.
            assert!(top_e.output.iter().all(|&s| s.index() == 0));
            assert!(top_c.iter().all(|&s| s.index() == 1));
        }
    }

    #[test]
    fn projector_gap_is_valid_and_diverges() {
        let (t, m) = projector_gap(5);
        let bound = prepare(&t).bind(&m).unwrap();
        let top_e = bound.top().unwrap().expect("answers exist");
        let (_, conf_c) = brute::top_by_confidence(&t, &m).unwrap().expect("answers");
        let conf_of_top_e = bound.confidence(&top_e.output).unwrap();
        assert!(conf_c > conf_of_top_e, "confidence top must beat E_max top");
    }

    #[test]
    fn imax_gap_matches_the_analysis() {
        for n in [2usize, 5, 8] {
            let (p, m) = imax_gap(n);
            let a = [m.alphabet().sym("a")];
            let (conf_want, imax_want) = imax_gap_expected(n);
            let conf = sproj_confidence(&p, &m, &a).unwrap();
            let imax = imax_of_output(&p, &m, &a).unwrap();
            assert!(
                approx_eq(conf, conf_want, 1e-10, 1e-8),
                "n={n}: conf {conf}"
            );
            assert!(
                approx_eq(imax, imax_want, 1e-10, 1e-8),
                "n={n}: imax {imax}"
            );
            // Proposition 5.9 sandwich, and the gap really grows with n.
            assert!(imax <= conf && conf <= n as f64 * imax + 1e-12);
        }
    }
}

#[cfg(test)]
mod blowup_tests {
    use super::*;
    use transmark_core::confidence::confidence_general;
    use transmark_markov::numeric::approx_eq;

    #[test]
    fn confidence_blowup_is_exact_on_small_instances() {
        for n in [2usize, 4, 6, 8] {
            let (t, m, o) = confidence_blowup(n);
            let got = confidence_general(&t, &m, &o).unwrap();
            let want = transmark_core::brute::evaluate(&t, &m)
                .unwrap()
                .get(&o)
                .copied()
                .unwrap_or(0.0);
            assert!(approx_eq(got, want, 1e-12, 1e-9), "n={n}: {got} vs {want}");
        }
    }

    #[test]
    fn blowup_really_materializes_many_configurations() {
        // Structural witness (timing-free): count the distinct
        // (node, configuration-set) DP keys per layer — the quantity the
        // exact algorithm's cost is proportional to. It must grow
        // superlinearly in n on this family (the deterministic class, by
        // contrast, is capped at |Σ|·|Q|·(|o|+1) singleton configurations).
        fn peak_layer_width(n: usize) -> usize {
            use std::collections::{BTreeSet, HashMap};
            let (t, m, o) = confidence_blowup(n);
            let width = o.len() + 1;
            // (node, set of (state, j)) → mass; mass unused, keys counted.
            let mut layer: HashMap<(u32, BTreeSet<(u32, usize)>), ()> = HashMap::new();
            for node in 0..m.n_symbols() {
                let mut set = BTreeSet::new();
                for e in t.edges(t.initial(), transmark_automata::SymbolId(node as u32)) {
                    let em = t.emission(e.emission);
                    if em.len() <= o.len() {
                        set.insert((e.target.0, em.len()));
                    }
                }
                layer.insert((node as u32, set), ());
            }
            let mut peak = layer.len();
            for _ in 0..n - 1 {
                let mut next: HashMap<(u32, BTreeSet<(u32, usize)>), ()> = HashMap::new();
                for ((_, set), ()) in &layer {
                    for to in 0..m.n_symbols() {
                        let mut set2 = BTreeSet::new();
                        for &(q, j) in set {
                            for e in t.edges(
                                transmark_automata::StateId(q),
                                transmark_automata::SymbolId(to as u32),
                            ) {
                                let em = t.emission(e.emission);
                                if j + em.len() < width {
                                    set2.insert((e.target.0, j + em.len()));
                                }
                            }
                        }
                        if !set2.is_empty() {
                            next.insert((to as u32, set2), ());
                        }
                    }
                }
                layer = next;
                peak = peak.max(layer.len());
            }
            peak
        }
        let w8 = peak_layer_width(8);
        let w16 = peak_layer_width(16);
        let w32 = peak_layer_width(32);
        // On this family the reachable sets collapse to near-intervals, so
        // the width grows roughly linearly in n (each configuration set
        // additionally being Θ(n) large — total work ≈ n³ vs. the
        // deterministic DP's fixed-size configurations). The width must
        // keep growing with the data; a machine-independent constant would
        // indicate the engine silently fell into a bounded regime.
        assert!(w8 >= 4, "n=8 width suspiciously small: {w8}");
        assert!(w16 > w8, "width stalled: {w8} -> {w16}");
        assert!(w32 > w16, "width stalled: {w16} -> {w32}");
        assert!(w32 >= 2 * w8, "width must scale with n: {w8} -> {w32}");
    }
}

/// The paper's amplification device (proofs of Thms 4.4/4.5): boost a
/// constant-factor gap "by essentially concatenating a polynomial number
/// of copies of the given Markov sequence". Copies of the [`emax_gap`]
/// instance are glued with a uniform transition; the one-state Mealy
/// machine is unchanged, and the `E_max`-vs-confidence ratio multiplies
/// across copies: `ratio(copies · n) = ratio(n)^copies`.
pub fn amplified_emax_gap(base_n: usize, copies: usize) -> (Transducer, MarkovSequence) {
    assert!(copies >= 1);
    let (t, base) = emax_gap(base_n);
    let k = base.n_symbols();
    let glue = vec![
        // Same marginals as the gadget's i.i.d. step: P(a)=0.4, P(b_i)=0.3.
        0.4, 0.3, 0.3, //
        0.4, 0.3, 0.3, //
        0.4, 0.3, 0.3,
    ];
    assert_eq!(glue.len(), k * k);
    let mut m = base.clone();
    for _ in 1..copies {
        m = m.concat(&glue, &base).expect("copies share the alphabet");
    }
    (t, m)
}

#[cfg(test)]
mod amplification_tests {
    use super::*;
    use transmark_core::prepare;
    use transmark_markov::numeric::approx_eq;

    #[test]
    fn amplification_multiplies_the_ratio() {
        let base_n = 3;
        for copies in [1usize, 2, 3] {
            let (t, m) = amplified_emax_gap(base_n, copies);
            assert_eq!(m.len(), base_n * copies);
            let bound = prepare(&t).bind(&m).unwrap();
            let top_e = bound.top().unwrap().expect("answers exist");
            let conf_e = bound.confidence(&top_e.output).unwrap();
            // The glued chain is still i.i.d. with the same marginals, so
            // the analytic ratio formula applies at length n·copies.
            let conf_best = 0.6f64.powi((base_n * copies) as i32);
            let ratio = conf_best / conf_e;
            let want = emax_gap_expected_ratio(base_n).powi(copies as i32);
            assert!(
                approx_eq(ratio, want, 1e-9, 1e-7),
                "copies={copies}: ratio {ratio} vs {want}"
            );
        }
    }
}
