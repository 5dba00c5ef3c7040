//! Property-based tests for the automata toolkit.
//!
//! Random NFAs/DFAs/regexes are checked against language-level laws:
//! determinization preserves the language, boolean products behave like
//! boolean connectives, minimization preserves the language while never
//! growing the automaton, and concatenation matches its definition.

use proptest::prelude::*;
use transmark_automata::{ops, regex::Regex, Alphabet, Dfa, Nfa, StateId, SymbolId};

/// A compact random NFA description that proptest can shrink.
#[derive(Debug, Clone)]
struct NfaSpec {
    n_symbols: usize,
    n_states: usize,
    accepting_mask: u32,
    /// (from, symbol, to) triples, reduced modulo the sizes.
    edges: Vec<(u8, u8, u8)>,
}

fn nfa_spec() -> impl Strategy<Value = NfaSpec> {
    (
        1usize..=3,
        1usize..=4,
        any::<u32>(),
        proptest::collection::vec(any::<(u8, u8, u8)>(), 0..20),
    )
        .prop_map(|(n_symbols, n_states, accepting_mask, edges)| NfaSpec {
            n_symbols,
            n_states,
            accepting_mask,
            edges,
        })
}

fn build_nfa(spec: &NfaSpec) -> Nfa {
    let mut n = Nfa::new(spec.n_symbols);
    for q in 0..spec.n_states {
        n.add_state(spec.accepting_mask >> q & 1 == 1);
    }
    for &(f, s, t) in &spec.edges {
        n.add_transition(
            StateId(f as u32 % spec.n_states as u32),
            SymbolId(s as u32 % spec.n_symbols as u32),
            StateId(t as u32 % spec.n_states as u32),
        );
    }
    n
}

fn all_strings(n_symbols: usize, max_len: usize) -> Vec<Vec<SymbolId>> {
    let mut out = vec![vec![]];
    let mut layer: Vec<Vec<SymbolId>> = vec![vec![]];
    for _ in 0..max_len {
        let mut next = Vec::new();
        for s in &layer {
            for c in 0..n_symbols {
                let mut t = s.clone();
                t.push(SymbolId(c as u32));
                next.push(t);
            }
        }
        out.extend(next.iter().cloned());
        layer = next;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn determinization_preserves_language(spec in nfa_spec()) {
        let nfa = build_nfa(&spec);
        let dfa = ops::determinize(&nfa);
        prop_assert!(dfa.validate().is_ok());
        for s in all_strings(spec.n_symbols, 4) {
            prop_assert_eq!(nfa.accepts(&s), dfa.accepts(&s), "string {:?}", s);
        }
    }

    #[test]
    fn minimization_preserves_language_and_shrinks(spec in nfa_spec()) {
        let dfa = ops::determinize(&build_nfa(&spec));
        let min = ops::minimize(&dfa);
        prop_assert!(min.n_states() <= dfa.n_states());
        prop_assert!(ops::equivalent(&dfa, &min).unwrap());
        // Minimization is idempotent.
        prop_assert_eq!(ops::minimize(&min).n_states(), min.n_states());
    }

    #[test]
    fn boolean_products_are_boolean(a in nfa_spec(), b in nfa_spec()) {
        let n_symbols = a.n_symbols.min(b.n_symbols);
        let mut a = a; a.n_symbols = n_symbols;
        let mut b = b; b.n_symbols = n_symbols;
        let da = ops::determinize(&build_nfa(&a));
        let db = ops::determinize(&build_nfa(&b));
        let and = ops::product(&da, &db, ops::BoolOp::And).unwrap();
        let or = ops::product(&da, &db, ops::BoolOp::Or).unwrap();
        let xor = ops::product(&da, &db, ops::BoolOp::Xor).unwrap();
        let not_a = ops::complement(&da);
        for s in all_strings(n_symbols, 3) {
            let (x, y) = (da.accepts(&s), db.accepts(&s));
            prop_assert_eq!(and.accepts(&s), x && y);
            prop_assert_eq!(or.accepts(&s), x || y);
            prop_assert_eq!(xor.accepts(&s), x != y);
            prop_assert_eq!(not_a.accepts(&s), !x);
        }
    }

    #[test]
    fn concatenation_matches_definition(a in nfa_spec(), b in nfa_spec()) {
        let n_symbols = a.n_symbols.min(b.n_symbols);
        let mut a = a; a.n_symbols = n_symbols;
        let mut b = b; b.n_symbols = n_symbols;
        let na = build_nfa(&a);
        let nb = build_nfa(&b);
        let cat = ops::concat_nfa(&na, &nb).unwrap();
        for s in all_strings(n_symbols, 4) {
            let expect = (0..=s.len()).any(|i| na.accepts(&s[..i]) && nb.accepts(&s[i..]));
            prop_assert_eq!(cat.accepts(&s), expect, "string {:?}", s);
        }
    }

    #[test]
    fn union_matches_definition(a in nfa_spec(), b in nfa_spec()) {
        let n_symbols = a.n_symbols.min(b.n_symbols);
        let mut a = a; a.n_symbols = n_symbols;
        let mut b = b; b.n_symbols = n_symbols;
        let na = build_nfa(&a);
        let nb = build_nfa(&b);
        let u = ops::union_nfa(&na, &nb).unwrap();
        for s in all_strings(n_symbols, 4) {
            prop_assert_eq!(u.accepts(&s), na.accepts(&s) || nb.accepts(&s));
        }
    }

    #[test]
    fn emptiness_agrees_with_enumeration(spec in nfa_spec()) {
        let nfa = build_nfa(&spec);
        // If the language restricted to short strings is nonempty, the
        // emptiness check must say nonempty (the converse needs longer
        // strings, bounded by the state count: pumping).
        let has_short = all_strings(spec.n_symbols, spec.n_states + 1)
            .iter()
            .any(|s| nfa.accepts(s));
        prop_assert_eq!(!ops::is_empty_nfa(&nfa), has_short);
    }
}

/// Random regexes, checked against a reference matcher on the AST.
mod regex_props {
    use super::*;

    /// Reference semantics by recursive matching on the AST.
    fn matches_ref(re: &Regex, s: &[SymbolId]) -> bool {
        match re {
            Regex::Epsilon => s.is_empty(),
            Regex::Class(set) => s.len() == 1 && set.contains(s[0].index()),
            Regex::Concat(a, b) => {
                (0..=s.len()).any(|i| matches_ref(a, &s[..i]) && matches_ref(b, &s[i..]))
            }
            Regex::Alt(a, b) => matches_ref(a, s) || matches_ref(b, s),
            Regex::Star(a) => {
                if s.is_empty() {
                    return true;
                }
                // Split off a nonempty prefix matching `a`.
                (1..=s.len()).any(|i| matches_ref(a, &s[..i]) && matches_ref(re, &s[i..]))
            }
        }
    }

    fn arb_regex(alphabet_len: usize) -> impl Strategy<Value = Regex> {
        let leaf = prop_oneof![
            Just(Regex::Epsilon),
            (0..alphabet_len as u32).prop_map(move |c| {
                Regex::Class(transmark_automata::BitSet::singleton(
                    alphabet_len,
                    c as usize,
                ))
            }),
        ];
        leaf.prop_recursive(3, 12, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| Regex::Concat(Box::new(a), Box::new(b))),
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| Regex::Alt(Box::new(a), Box::new(b))),
                inner.prop_map(|a| Regex::Star(Box::new(a))),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn glushkov_matches_reference_semantics(re in arb_regex(2)) {
            let alphabet = Alphabet::of_chars("ab");
            let nfa = re.compile(&alphabet);
            for s in super::all_strings(2, 5) {
                prop_assert_eq!(nfa.accepts(&s), matches_ref(&re, &s), "string {:?}", s);
            }
        }
    }
}

#[test]
fn word_dfa_language_is_singleton() {
    for w in all_strings(2, 3) {
        let d = Dfa::word(2, &w);
        for s in all_strings(2, 4) {
            assert_eq!(d.accepts(&s), s == w);
        }
    }
}

mod determinizer_props {
    use super::*;
    use transmark_automata::ops::determinize;
    use transmark_automata::{BitSet, SubsetTable};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On-the-fly determinization over a `SubsetTable` agrees with
        /// direct NFA subset simulation on every string, including
        /// dead-subset detection, and so does the eager `determinize`.
        #[test]
        fn determinizer_tracks_reach_sets(spec in super::nfa_spec()) {
            let nfa = super::build_nfa(&spec);
            let dfa = determinize(&nfa);
            let accepting = nfa.accepting_set();
            let mut table = SubsetTable::new(nfa.n_states());
            let init = table.intern(BitSet::singleton(nfa.n_states(), nfa.initial().index()));
            for s in super::all_strings(spec.n_symbols, 4) {
                let mut id = init;
                for &c in &s {
                    id = table.intern(nfa.step_set(&table[id], c));
                }
                let reach = nfa.reachable_after(&s);
                prop_assert_eq!(table[id].is_empty(), reach.is_empty());
                prop_assert_eq!(&table[id], &reach);
                prop_assert_eq!(table[id].intersects(&accepting), nfa.accepts(&s));
                prop_assert_eq!(dfa.accepts(&s), nfa.accepts(&s));
            }
            // Materialized subsets are bounded by distinct reach sets + 1.
            prop_assert!(table.len() <= 2usize.pow(spec.n_states as u32) + 1);
            prop_assert!(dfa.n_states() <= 2usize.pow(spec.n_states as u32) + 1);
        }
    }
}
