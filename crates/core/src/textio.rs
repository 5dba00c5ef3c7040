//! A plain-text interchange format for transducers.
//!
//! Companion to [`transmark_markov::textio`]; fixes a file format so
//! queries can be stored and fed to the CLI:
//!
//! ```text
//! transducer v1
//! input-alphabet r1a r1b la lb
//! output-alphabet 1 2 λ
//! states 4
//! initial 0
//! accepting 1 2 3
//! # from input-symbol to emission…
//! edge 0 r1a 0
//! edge 0 la 1
//! edge 1 r1a 2 1
//! ```
//!
//! * `edge q σ q' [d…]` adds `q' ∈ δ(q, σ)` emitting the listed output
//!   symbols (none = ε);
//! * `states n` claims `n·|Σ_in|` table slots (a state and an input
//!   symbol each); past [`FREE_SLOTS`], a text must hold a byte per slot;
//! * `#` comments and blank lines are ignored;
//! * deterministic emission and id ranges are validated by the
//!   [`TransducerBuilder`], so a file that parses is a valid machine.

use std::fmt::Write as _;
use std::sync::Arc;

use transmark_automata::StateId;
use transmark_markov::textio::LineReader;
use transmark_markov::SourceError;

use crate::error::EngineError;
use crate::transducer::{Transducer, TransducerBuilder};

pub use transmark_markov::textio::ParseError;

/// Everything that can go wrong reading a transducer file.
#[derive(Debug)]
pub enum TextIoError {
    /// Syntactic problem.
    Parse(ParseError),
    /// The parsed data is not a valid machine.
    Model(EngineError),
}

impl std::fmt::Display for TextIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TextIoError::Parse(e) => write!(f, "{e}"),
            TextIoError::Model(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TextIoError {}

impl From<EngineError> for TextIoError {
    fn from(e: EngineError) -> Self {
        TextIoError::Model(e)
    }
}

impl From<ParseError> for TextIoError {
    fn from(e: ParseError) -> Self {
        TextIoError::Parse(e)
    }
}

/// The shared line reader fails only with a located parse error or in the
/// reader underneath, which the engine carries as a source error.
impl From<SourceError> for TextIoError {
    fn from(e: SourceError) -> Self {
        match e {
            SourceError::Parse(e) => TextIoError::Parse(e),
            other => TextIoError::Model(other.into()),
        }
    }
}

/// Serializes a transducer to the v1 text format.
pub fn to_text(t: &Transducer) -> String {
    let mut out = String::new();
    out.push_str("transducer v1\n");
    out.push_str("input-alphabet");
    for (_, name) in t.input_alphabet().iter() {
        let _ = write!(out, " {name}");
    }
    out.push_str("\noutput-alphabet");
    for (_, name) in t.output_alphabet().iter() {
        let _ = write!(out, " {name}");
    }
    let _ = write!(
        out,
        "\nstates {}\ninitial {}\naccepting",
        t.n_states(),
        t.initial().0
    );
    for q in 0..t.n_states() {
        if t.is_accepting(StateId(q as u32)) {
            let _ = write!(out, " {q}");
        }
    }
    out.push('\n');
    for (from, sym, e) in t.transitions() {
        let _ = write!(
            out,
            "edge {} {} {}",
            from.0,
            t.input_alphabet().name(sym),
            e.target.0
        );
        for &d in t.emission(e.emission) {
            let _ = write!(out, " {}", t.output_alphabet().name(d));
        }
        out.push('\n');
    }
    out
}

/// The table slots any `.tmt` text may claim, whatever its length: 2^20
/// slots, 24 MiB of transition table. Past this, a text must hold a byte
/// per slot.
pub const FREE_SLOTS: usize = 1 << 20;

/// Parses the v1 text format.
///
/// Each state takes `|Σ_in|` slots of the builder's table. A `states`
/// count claiming more than [`FREE_SLOTS`] slots and more slots than the
/// text has bytes is rejected at its line, before any state is added.
/// That refuses only very sparse machines: over a million slots, most of
/// them empty.
pub fn from_text(text: &str) -> Result<Transducer, TextIoError> {
    let mut lines = LineReader::new(text.as_bytes());
    lines.magic("transducer v1")?;
    let input = Arc::new(lines.alphabet("input-alphabet")?);
    let output = Arc::new(lines.alphabet("output-alphabet")?);

    let (ln, rest) = lines.keyword("states", "<n>")?;
    let n_states: usize = rest
        .parse()
        .map_err(|e| ParseError::at(ln, format!("bad state count: {e}")))?;
    let slots = n_states.saturating_mul(input.len());
    if slots > text.len().max(FREE_SLOTS) {
        return Err(ParseError::at(
            ln,
            format!("states {n_states} needs {slots} table slots; the text cannot back them"),
        )
        .into());
    }

    let (ln, rest) = lines.keyword("initial", "<q>")?;
    let initial: usize = rest
        .parse()
        .map_err(|e| ParseError::at(ln, format!("bad initial state: {e}")))?;
    if initial >= n_states {
        let message = format!("initial state {initial} out of range");
        return Err(ParseError::at(ln, message).into());
    }

    let (ln, rest) = lines.keyword("accepting", "<q…>")?;
    let accepting: Vec<usize> = rest
        .split_whitespace()
        .map(str::parse)
        .collect::<Result<_, _>>()
        .map_err(|e| ParseError::at(ln, format!("bad accepting state: {e}")))?;

    let mut b = TransducerBuilder::new(Arc::clone(&input), Arc::clone(&output));
    for _ in 0..n_states {
        b.add_state(false);
    }
    b.set_initial(StateId(initial as u32));
    for q in accepting {
        if q >= n_states {
            let message = format!("accepting state {q} out of range");
            return Err(ParseError::at(ln, message).into());
        }
        b.set_accepting(StateId(q as u32), true);
    }

    while let Some((ln, line)) = lines.next_line()? {
        let body = line
            .strip_prefix("edge")
            .ok_or_else(|| ParseError::at(ln, format!("expected \"edge …\", found {line:?}")))?;
        let mut parts = body.split_whitespace();
        let from: usize = parts
            .next()
            .ok_or_else(|| ParseError::at(ln, "edge missing source state"))?
            .parse()
            .map_err(|e| ParseError::at(ln, format!("bad source state: {e}")))?;
        let sym_name = parts
            .next()
            .ok_or_else(|| ParseError::at(ln, "edge missing input symbol"))?;
        let sym = input
            .get(sym_name)
            .ok_or_else(|| ParseError::at(ln, format!("unknown input symbol {sym_name:?}")))?;
        let to: usize = parts
            .next()
            .ok_or_else(|| ParseError::at(ln, "edge missing target state"))?
            .parse()
            .map_err(|e| ParseError::at(ln, format!("bad target state: {e}")))?;
        let emission: Vec<_> = parts
            .map(|d| {
                output
                    .get(d)
                    .ok_or_else(|| ParseError::at(ln, format!("unknown output symbol {d:?}")))
            })
            .collect::<Result<_, _>>()?;
        if from >= n_states || to >= n_states {
            return Err(ParseError::at(ln, "edge state out of range").into());
        }
        b.add_transition(StateId(from as u32), sym, StateId(to as u32), &emission)?;
    }
    Ok(b.build()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{random_transducer, RandomTransducerSpec, TransducerClass};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn round_trip_preserves_machine() {
        let mut rng = StdRng::seed_from_u64(13);
        for class in [
            TransducerClass::General,
            TransducerClass::Deterministic,
            TransducerClass::Mealy,
            TransducerClass::Projector,
        ] {
            let t = random_transducer(
                &RandomTransducerSpec {
                    class,
                    ..RandomTransducerSpec::default()
                },
                &mut rng,
            );
            let back = from_text(&to_text(&t)).expect("round trip parses");
            assert_eq!(back.n_states(), t.n_states());
            assert_eq!(back.initial(), t.initial());
            let ta: Vec<_> = t.transitions().collect();
            let tb: Vec<_> = back.transitions().collect();
            assert_eq!(ta.len(), tb.len());
            for ((f1, s1, e1), (f2, s2, e2)) in ta.iter().zip(tb.iter()) {
                assert_eq!((f1, s1, e1.target), (f2, s2, e2.target));
                assert_eq!(t.emission(e1.emission), back.emission(e2.emission));
            }
            for q in 0..t.n_states() {
                assert_eq!(
                    t.is_accepting(StateId(q as u32)),
                    back.is_accepting(StateId(q as u32))
                );
            }
        }
    }

    #[test]
    fn hand_written_file_parses() {
        let text = "\n# room change detector\ntransducer v1\ninput-alphabet a b\noutput-alphabet x\nstates 2\ninitial 0\naccepting 0 1\nedge 0 a 0\nedge 0 b 1 x\nedge 1 b 1\nedge 1 a 0 x\n";
        let t = from_text(text).unwrap();
        assert_eq!(t.n_states(), 2);
        assert!(t.is_deterministic());
        let out = t
            .transduce_deterministic(&[
                t.input_alphabet().sym("a"),
                t.input_alphabet().sym("b"),
                t.input_alphabet().sym("b"),
            ])
            .unwrap();
        assert_eq!(t.render_output(&out, ""), "x");
    }

    #[test]
    fn errors_are_located() {
        assert!(matches!(from_text(""), Err(TextIoError::Parse(_))));
        let bad_edge = "transducer v1\ninput-alphabet a\noutput-alphabet x\nstates 1\ninitial 0\naccepting 0\nedge 0 z 0\n";
        match from_text(bad_edge) {
            Err(TextIoError::Parse(e)) => {
                assert_eq!(e.line, 7);
                assert!(e.message.contains("unknown input symbol"));
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        // A state out of range is reported at its own line.
        let bad_initial = "transducer v1\ninput-alphabet a\noutput-alphabet x\nstates 1\ninitial 9\naccepting 0\nedge 0 a 0\n";
        match from_text(bad_initial) {
            Err(TextIoError::Parse(e)) => {
                assert_eq!(e.line, 5);
                assert!(e.message.contains("initial state 9 out of range"));
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        // Conflicting emissions are a model error.
        let conflict = "transducer v1\ninput-alphabet a\noutput-alphabet x\nstates 1\ninitial 0\naccepting 0\nedge 0 a 0 x\nedge 0 a 0\n";
        assert!(matches!(from_text(conflict), Err(TextIoError::Model(_))));
    }

    /// A 115-byte text claiming 4·10^9 states (the file in
    /// `transmark_workloads::hostile`) is refused at its `states` line,
    /// before the builder adds a state. Any text may claim `FREE_SLOTS`
    /// slots; past that, it must hold a byte per slot.
    #[test]
    fn states_the_text_cannot_back_are_rejected() {
        let huge = "transducer v1\ninput-alphabet a b\noutput-alphabet x\nstates 4000000000\n\
                    initial 0\naccepting 0\nedge 0 a 0\nedge 0 b 0 x\n";
        match from_text(huge) {
            Err(TextIoError::Parse(e)) => {
                assert_eq!(e.line, 4, "{e}");
                assert!(e.message.contains("cannot back"), "{e}");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
        let free = FREE_SLOTS / 2;
        let with_states = |n: usize| huge.replace("4000000000", &n.to_string());
        let t = from_text(&with_states(free)).expect("the free slots");
        assert_eq!(t.n_states(), free);
        assert!(matches!(
            from_text(&with_states(free + 1)),
            Err(TextIoError::Parse(ParseError { line: 4, .. }))
        ));
        // A comment pads the text to back exactly one more state.
        let padded = with_states(free + 1);
        let padded = format!("{padded}#{}\n", "-".repeat(FREE_SLOTS - padded.len()));
        assert_eq!(padded.len(), FREE_SLOTS + 2);
        assert_eq!(from_text(&padded).expect("backed").n_states(), free + 1);
    }

    /// Partial machines with many more slots than bytes still round trip
    /// while they claim at most `FREE_SLOTS`: a 20-state chain spelling
    /// one word over 26 letters (520 slots in under 400 bytes) and a
    /// 4000-state path over 200 symbols with one edge per state (800 000
    /// slots in under 100 kB).
    #[test]
    fn sparse_machines_round_trip() {
        use transmark_automata::{Alphabet, SymbolId};
        let letters: Vec<String> = ('a'..='z').map(String::from).collect();
        let symbols: Vec<String> = (0..200).map(|i| format!("p{i}")).collect();
        for (names, n_states) in [(&letters, 20), (&symbols, 4000)] {
            let input = Alphabet::from_names(names);
            let mut b = TransducerBuilder::new(input, Alphabet::from_names(["w"]));
            for q in 0..n_states {
                b.add_state(q + 1 == n_states);
            }
            for q in 0..n_states - 1 {
                let sym = SymbolId((q * 7 % names.len()) as u32);
                let emission: &[SymbolId] = if q == 0 { &[SymbolId(0)] } else { &[] };
                let (from, to) = (StateId(q as u32), StateId(q as u32 + 1));
                b.add_transition(from, sym, to, emission).unwrap();
            }
            let t = b.build().unwrap();
            let text = to_text(&t);
            assert!(t.n_states() * names.len() > text.len(), "{}", text.len());
            let back = from_text(&text).expect("a sparse machine parses");
            assert_eq!(to_text(&back), text);
        }
    }
}
