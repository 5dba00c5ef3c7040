//! A plain-text interchange format for HMMs.
//!
//! Completes the CLI pipeline: a stored model plus an observation
//! sequence yields a queryable Markov sequence (footnote 1's
//! translation), without writing any code.
//!
//! ```text
//! hmm v1
//! hidden rain sun
//! observations umbrella none
//! initial 0.5 0.5
//! transition
//! 0.7 0.3
//! 0.3 0.7
//! emission
//! 0.9 0.1
//! 0.2 0.8
//! ```
//!
//! `transition` is `|S|` rows of `|S|` probabilities; `emission` is `|S|`
//! rows of `|O|` probabilities. `#` comments and blank lines are ignored.

use std::fmt::Write as _;

use crate::hmm::Hmm;
use crate::source::SourceError;
use crate::textio::{parse_row, LineReader, ParseError};

/// Serializes an HMM to the v1 text format.
pub fn to_text(hmm: &Hmm) -> String {
    let k = hmm.hidden_alphabet().len();
    let m = hmm.observation_alphabet().len();
    let mut out = String::new();
    out.push_str("hmm v1\nhidden");
    for (_, n) in hmm.hidden_alphabet().iter() {
        let _ = write!(out, " {n}");
    }
    out.push_str("\nobservations");
    for (_, n) in hmm.observation_alphabet().iter() {
        let _ = write!(out, " {n}");
    }
    out.push_str("\ninitial");
    for s in hmm.hidden_alphabet().ids() {
        let _ = write!(out, " {}", hmm.initial_prob(s));
    }
    out.push_str("\ntransition\n");
    for s in 0..k {
        let row: Vec<String> = (0..k)
            .map(|t| {
                hmm.transition_prob(
                    transmark_automata::SymbolId(s as u32),
                    transmark_automata::SymbolId(t as u32),
                )
                .to_string()
            })
            .collect();
        let _ = writeln!(out, "{}", row.join(" "));
    }
    out.push_str("emission\n");
    for s in 0..k {
        let row: Vec<String> = (0..m)
            .map(|o| {
                hmm.emission_prob(
                    transmark_automata::SymbolId(s as u32),
                    transmark_automata::SymbolId(o as u32),
                )
                .to_string()
            })
            .collect();
        let _ = writeln!(out, "{}", row.join(" "));
    }
    out
}

/// Parses the v1 text format; the result is validated by [`Hmm::new`].
pub fn from_text(text: &str) -> Result<Hmm, SourceError> {
    let mut lines = LineReader::new(text.as_bytes());
    lines.magic("hmm v1")?;
    let hidden = lines.alphabet("hidden")?;
    let observations = lines.alphabet("observations")?;
    let (k, m) = (hidden.len(), observations.len());

    let (ln, body) = lines.keyword("initial", "<p…>")?;
    let mut initial = Vec::new();
    parse_row(ln, body, k, "initial distribution", &mut initial)?;

    let mut table = |header: &str, cols: usize| -> Result<Vec<f64>, SourceError> {
        let (ln, line) = lines.require(format_args!("\"{header}\" header"))?;
        if line != header {
            let message = format!("expected \"{header}\", found {line:?}");
            return Err(ParseError::at(ln, message).into());
        }
        // Grown row by row: `k` and `cols` are only claims until the rows
        // arrive.
        let mut out = Vec::new();
        for row in 0..k {
            let (ln, body) = lines.require(format_args!("row {row} of {header}"))?;
            parse_row(ln, body, cols, format_args!("{header} row {row}"), &mut out)?;
        }
        Ok(out)
    };
    let transition = table("transition", k)?;
    let emission = table("emission", m)?;
    lines.finish()?;
    Hmm::new(hidden, observations, initial, transition, emission).map_err(SourceError::Model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use transmark_automata::Alphabet;

    fn toy() -> Hmm {
        let hidden = Alphabet::from_names(["rain", "sun"]);
        let obs = Alphabet::from_names(["umbrella", "none"]);
        Hmm::new(
            hidden,
            obs,
            vec![0.6, 0.4],
            vec![0.7, 0.3, 0.2, 0.8],
            vec![0.9, 0.1, 0.25, 0.75],
        )
        .unwrap()
    }

    #[test]
    fn round_trip_preserves_parameters() {
        let hmm = toy();
        let back = from_text(&to_text(&hmm)).unwrap();
        let o = back.observation_alphabet().clone();
        let obs = vec![o.sym("umbrella"), o.sym("none")];
        // Same posterior ⇒ same parameters (given fixed structure).
        let a = hmm.posterior(&obs).unwrap();
        let b = back.posterior(&obs).unwrap();
        assert_eq!(a.initial_dist(), b.initial_dist());
        assert_eq!(
            hmm.log_likelihood(&obs).unwrap().to_bits(),
            back.log_likelihood(&obs).unwrap().to_bits()
        );
    }

    #[test]
    fn hand_written_file_parses() {
        let text = "# weather\nhmm v1\nhidden rain sun\nobservations u n\ninitial 0.5 0.5\ntransition\n0.7 0.3\n0.3 0.7\nemission\n0.9 0.1\n0.2 0.8\n";
        let hmm = from_text(text).unwrap();
        assert_eq!(hmm.hidden_alphabet().len(), 2);
        assert_eq!(hmm.observation_alphabet().len(), 2);
    }

    #[test]
    fn errors_are_located_and_classified() {
        assert!(matches!(from_text(""), Err(SourceError::Parse(_))));
        let short_row =
            "hmm v1\nhidden a b\nobservations x\ninitial 1 0\ntransition\n1 0\n0\nemission\n1\n1\n";
        match from_text(short_row) {
            Err(SourceError::Parse(e)) => assert_eq!(e.line, 7, "{e}"),
            other => panic!("expected located error, got {other:?}"),
        }
        // Rows that parse but are not distributions: a model error.
        let bad_dist = "hmm v1\nhidden a b\nobservations x\ninitial 0.7 0.7\ntransition\n1 0\n0 1\nemission\n1\n1\n";
        assert!(matches!(from_text(bad_dist), Err(SourceError::Model(_))));
    }

    #[test]
    fn wide_model_reserves_nothing_the_file_cannot_back() {
        // 10^5 hidden symbols imply an 80 GB transition table; the file
        // holds one number of it.
        let k = 100_000;
        let names: Vec<String> = (0..k).map(|i| format!("h{i}")).collect();
        let text = format!(
            "hmm v1\nhidden {}\nobservations x\ninitial 1{}\ntransition\n1\n",
            names.join(" "),
            " 0".repeat(k - 1)
        );
        match from_text(&text) {
            Err(SourceError::Parse(e)) => assert_eq!(e.line, 6, "{e}"),
            other => panic!("expected a parse error on line 6, got {other:?}"),
        }
    }
}
