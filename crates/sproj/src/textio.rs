//! A plain-text interchange format for s-projectors.
//!
//! Companion to the sequence and transducer formats; an extraction query
//! is three regular expressions over a character alphabet (exactly the
//! paper's Example 5.1 presentation):
//!
//! ```text
//! sprojector v1
//! alphabet abcABC:  …one character per symbol, concatenated
//! prefix .*Name:
//! pattern [a-zA-Z]+
//! suffix \s.*
//! ```
//!
//! `alphabet` is given as a single run of characters (symbol names must
//! be single characters for the regex syntax to apply; write `\s` for a
//! space symbol); the three component lines hold the §5 `B`, `A`, `E`
//! expressions, and nothing may follow the `suffix` line. `#` comments
//! and blank lines are ignored.

use std::fmt::Write as _;

use transmark_automata::Alphabet;
use transmark_core::error::EngineError;
use transmark_markov::textio::{parse_alphabet, LineReader};

use crate::projector::SProjector;

/// The transducer format's errors: a regex error is a
/// [`TextIoError::Parse`] at the line of the offending component.
pub use transmark_core::textio::{ParseError, TextIoError};

/// Serializes the *source form* of an s-projector: the alphabet and the
/// three component patterns. Since [`SProjector`] stores compiled DFAs
/// (patterns are not recoverable), this takes the patterns explicitly;
/// it is the inverse of [`from_text`].
pub fn to_text(alphabet: &Alphabet, prefix: &str, pattern: &str, suffix: &str) -> String {
    let mut out = String::new();
    out.push_str("sprojector v1\nalphabet ");
    for (_, name) in alphabet.iter() {
        // Whitespace would be destroyed by line trimming; escape it.
        if name == " " {
            out.push_str("\\s");
        } else {
            out.push_str(name);
        }
    }
    let _ = write!(
        out,
        "\nprefix {prefix}\npattern {pattern}\nsuffix {suffix}\n"
    );
    out
}

/// Parses the v1 text format and compiles the projector.
pub fn from_text(text: &str) -> Result<SProjector, TextIoError> {
    let mut lines = LineReader::new(text.as_bytes());
    lines.magic("sprojector v1")?;
    let (ln, chars) = lines.keyword("alphabet", "<chars>")?;
    // `\s` escapes a space symbol (plain spaces are destroyed by trimming).
    let chars = chars.replace("\\s", " ");
    let alphabet = parse_alphabet(ln, "alphabet", chars.chars().map(String::from))?;

    let mut component = |what: &str| {
        lines
            .keyword(what, "<regex>")
            .map(|(ln, body)| (ln, body.to_string()))
    };
    let (pl, prefix) = component("prefix")?;
    let (al, pattern) = component("pattern")?;
    let (sl, suffix) = component("suffix")?;
    lines.finish()?;

    // Compile each component separately so errors point at the right line.
    let compile_err = |ln: usize, which: &str, e: EngineError| {
        ParseError::at(ln, format!("invalid {which} pattern: {e}")).into()
    };
    SProjector::from_patterns(alphabet.clone(), &prefix, &pattern, &suffix).map_err(|e| {
        // Re-compile the pieces to locate the failure.
        use transmark_automata::regex::Regex;
        if Regex::parse(&prefix, &alphabet).is_err() {
            compile_err(pl, "prefix", e)
        } else if Regex::parse(&pattern, &alphabet).is_err() {
            compile_err(al, "pattern", e)
        } else {
            compile_err(sl, "suffix", e)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use transmark_automata::SymbolId;

    #[test]
    fn round_trip_compiles_the_same_query() {
        let alphabet = Alphabet::of_chars("abN:me ");
        let text = to_text(&alphabet, ".*N:", "[ab]+", "\\s.*");
        let p = from_text(&text).unwrap();
        let parse = |s: &str| -> Vec<SymbolId> {
            s.chars()
                .map(|c| p.alphabet().sym(&c.to_string()))
                .collect()
        };
        assert!(p.matches(&parse("aN:ab b"), &parse("ab")));
        assert!(!p.matches(&parse("aaN:abb"), &parse("ab"))); // no trailing space
    }

    #[test]
    fn hand_written_file_parses() {
        let text =
            "# extract runs of a\nsprojector v1\nalphabet ab\nprefix b*\npattern a+\nsuffix .*\n";
        let p = from_text(text).unwrap();
        let a = p.alphabet().sym("a");
        let b = p.alphabet().sym("b");
        assert!(p.matches(&[b, a, a], &[a, a]));
        assert!(!p.matches(&[a, b, a], &[a, a]));
    }

    #[test]
    fn errors_carry_component_lines() {
        let missing = "sprojector v1\nalphabet ab\nprefix .*\npattern a+\n";
        assert!(matches!(from_text(missing), Err(TextIoError::Parse(_))));
        let bad_pattern = "sprojector v1\nalphabet ab\nprefix .*\npattern [a\nsuffix .*\n";
        match from_text(bad_pattern) {
            Err(TextIoError::Parse(e)) => {
                assert_eq!(e.line, 4, "{e}");
                assert!(e.message.contains("pattern"), "{e}");
            }
            other => panic!("expected located error, got {other:?}"),
        }
        let dup = "sprojector v1\nalphabet aa\nprefix .*\npattern a\nsuffix .*\n";
        assert!(matches!(from_text(dup), Err(TextIoError::Parse(_))));
    }

    #[test]
    fn trailing_content_is_rejected() {
        let text = "sprojector v1\nalphabet ab\nprefix .*\npattern a\nsuffix .*\n# end\nsuffix b\n";
        match from_text(text) {
            Err(TextIoError::Parse(e)) => {
                assert_eq!(e.line, 7, "{e}");
                assert!(e.message.starts_with("unexpected trailing content"), "{e}");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    /// Every text format cut short after any of its fixed lines reports
    /// the last line it read (`line 7: input ends: missing "step 1"
    /// header`); only an empty input reports line 0. This crate sees all
    /// four decoders: `.tms`, `.tmh`, `.tmt` (whose edge lines are
    /// optional, so only its first six lines are fixed) and `.tmp`.
    #[test]
    fn truncated_text_names_the_last_line_read() {
        use rand::{rngs::StdRng, SeedableRng};
        use transmark_core::generate::{random_transducer, RandomTransducerSpec};
        use transmark_markov::generate::{random_markov_sequence, RandomChainSpec};
        use transmark_markov::hmm_textio;
        use transmark_markov::source::materialize;
        use transmark_markov::textio::TmsTextSource;
        use transmark_markov::Hmm;

        let mut rng = StdRng::seed_from_u64(12);
        let chain = random_markov_sequence(
            &RandomChainSpec {
                len: 4,
                n_symbols: 2,
                zero_prob: 0.2,
            },
            &mut rng,
        );
        let machine = random_transducer(&RandomTransducerSpec::default(), &mut rng);
        let hmm = Hmm::new(
            Alphabet::from_names(["rain", "sun"]),
            Alphabet::from_names(["umbrella", "none"]),
            vec![0.6, 0.4],
            vec![0.7, 0.3, 0.2, 0.8],
            vec![0.9, 0.1, 0.25, 0.75],
        )
        .expect("a valid HMM");

        type Decode = fn(&str) -> Result<(), TextIoError>;
        let tms: Decode = |text| {
            TmsTextSource::new(text.as_bytes())
                .and_then(|mut src| materialize(&mut src))
                .map(drop)
                .map_err(TextIoError::from)
        };
        let tmh: Decode = |text| {
            hmm_textio::from_text(text)
                .map(drop)
                .map_err(TextIoError::from)
        };
        let tmt: Decode = |text| transmark_core::textio::from_text(text).map(drop);
        let tmp: Decode = |text| from_text(text).map(drop);
        let chain_text = transmark_markov::textio::to_text(&chain);
        let cases = [
            (chain_text.clone(), usize::MAX, tms),
            (hmm_textio::to_text(&hmm), usize::MAX, tmh),
            (transmark_core::textio::to_text(&machine), 6, tmt),
            (to_text(&Alphabet::of_chars("ab"), "b*", "a+", ".*"), 5, tmp),
        ];
        for (text, fixed, decode) in cases {
            let lines: Vec<&str> = text.lines().collect();
            for cut in 0..fixed.min(lines.len()) {
                let short: String = lines[..cut].iter().map(|l| format!("{l}\n")).collect();
                match decode(&short) {
                    Err(TextIoError::Parse(e)) => {
                        assert_eq!(e.line, cut, "{e}");
                        let want = ["input ends: missing ", "empty input"][usize::from(cut == 0)];
                        assert!(e.message.starts_with(want), "{e}");
                    }
                    other => panic!("{:?} cut after {cut} lines: got {other:?}", lines[0]),
                }
            }
        }
        let cut: String = chain_text
            .lines()
            .take(7)
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(
            tms(&cut).unwrap_err().to_string(),
            "line 7: input ends: missing \"step 1\" header"
        );
    }
}
