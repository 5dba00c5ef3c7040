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
use std::sync::Arc;

use transmark_automata::Alphabet;

use crate::hmm::Hmm;
use crate::textio::{ParseError, TextIoError};

fn err(line: usize, message: impl Into<String>) -> TextIoError {
    TextIoError::Parse(ParseError {
        line,
        message: message.into(),
    })
}

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
pub fn from_text(text: &str) -> Result<Hmm, TextIoError> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));

    let (ln, header) = lines.next().ok_or_else(|| err(0, "empty input"))?;
    if header != "hmm v1" {
        return Err(err(ln, format!("expected \"hmm v1\", found {header:?}")));
    }
    let mut alphabet_line = |prefix: &str| -> Result<Arc<Alphabet>, TextIoError> {
        let (ln, line) = lines
            .next()
            .ok_or_else(|| err(0, format!("missing \"{prefix}\" line")))?;
        let names: Vec<&str> = line
            .strip_prefix(prefix)
            .ok_or_else(|| err(ln, format!("expected \"{prefix} <names…>\"")))?
            .split_whitespace()
            .collect();
        if names.is_empty() {
            return Err(err(ln, format!("{prefix} must list at least one symbol")));
        }
        let a = Alphabet::from_names(names.iter().copied());
        if a.len() != names.len() {
            return Err(err(ln, format!("duplicate names in {prefix}")));
        }
        Ok(Arc::new(a))
    };
    let hidden = alphabet_line("hidden")?;
    let observations = alphabet_line("observations")?;
    let (k, m) = (hidden.len(), observations.len());

    let parse_row =
        |ln: usize, body: &str, cols: usize, what: &str| -> Result<Vec<f64>, TextIoError> {
            let vals: Result<Vec<f64>, _> = body.split_whitespace().map(str::parse).collect();
            let vals = vals.map_err(|e| err(ln, format!("bad number in {what}: {e}")))?;
            if vals.len() != cols {
                return Err(err(
                    ln,
                    format!("{what} has {} entries, expected {cols}", vals.len()),
                ));
            }
            Ok(vals)
        };

    let (ln, init_line) = lines.next().ok_or_else(|| err(0, "missing initial line"))?;
    let initial = parse_row(
        ln,
        init_line
            .strip_prefix("initial")
            .ok_or_else(|| err(ln, "expected \"initial <p…>\""))?,
        k,
        "initial distribution",
    )?;

    let mut table = |header: &str, cols: usize| -> Result<Vec<f64>, TextIoError> {
        let (ln, line) = lines
            .next()
            .ok_or_else(|| err(0, format!("missing \"{header}\" header")))?;
        if line != header {
            return Err(err(ln, format!("expected \"{header}\", found {line:?}")));
        }
        // Grown row by row: `k` and `cols` are only claims until the rows
        // arrive.
        let mut out = Vec::new();
        for row in 0..k {
            let (ln, body) = lines
                .next()
                .ok_or_else(|| err(0, format!("missing row {row} of {header}")))?;
            out.extend(parse_row(ln, body, cols, &format!("{header} row {row}"))?);
        }
        Ok(out)
    };
    let transition = table("transition", k)?;
    let emission = table("emission", m)?;
    if let Some((ln, extra)) = lines.next() {
        return Err(err(ln, format!("unexpected trailing content: {extra:?}")));
    }
    let observations = Arc::try_unwrap(observations).unwrap_or_else(|a| (*a).clone());
    Hmm::new(hidden, observations, initial, transition, emission).map_err(TextIoError::from)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(matches!(from_text(""), Err(TextIoError::Parse(_))));
        let short_row =
            "hmm v1\nhidden a b\nobservations x\ninitial 1 0\ntransition\n1 0\n0\nemission\n1\n1\n";
        match from_text(short_row) {
            Err(TextIoError::Parse(e)) => assert_eq!(e.line, 7, "{e}"),
            other => panic!("expected located error, got {other:?}"),
        }
        // Rows that parse but are not distributions: a model error.
        let bad_dist = "hmm v1\nhidden a b\nobservations x\ninitial 0.7 0.7\ntransition\n1 0\n0 1\nemission\n1\n1\n";
        assert!(matches!(from_text(bad_dist), Err(TextIoError::Model(_))));
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
            Err(TextIoError::Parse(e)) => assert_eq!(e.line, 6, "{e}"),
            other => panic!("expected a parse error on line 6, got {other:?}"),
        }
    }
}
