//! A plain-text interchange format for Markov sequences.
//!
//! The paper assumes sequences are "represented in a straightforward
//! manner … a transition matrix for each index and an array for μ₀→"
//! (§3.2). This module fixes one such representation so sequences can be
//! stored, diffed and fed to the CLI:
//!
//! ```text
//! markov-sequence v1
//! alphabet r1a r1b la
//! length 3
//! initial 0.7 0.28 0.02
//! step 0
//! 0.1 0.0 0.9
//! 0.0 0.9 0.1
//! 0.0 1.0 0.0
//! step 1
//! …
//! ```
//!
//! * `#`-prefixed lines and blank lines are ignored;
//! * symbol names may not contain whitespace;
//! * each `step i` block holds `|Σ|` rows of `|Σ|` probabilities
//!   (row = source node, in alphabet order);
//! * probabilities accept anything `f64::from_str` does.
//!
//! The format has one decoder, the streaming [`TmsTextSource`];
//! [`from_text`] drains it through [`crate::source::materialize`]. Every
//! distribution is validated as its line or layer arrives, so a file that
//! parses is a *valid* Markov sequence (rows summing to 1, etc.). No
//! buffer is sized from a claimed `length` or `|Σ|`: each grows with the
//! numbers actually read.

use std::fmt::Write as _;
use std::io::BufRead;
use std::sync::Arc;

use transmark_automata::{Alphabet, SymbolId};

use crate::error::MarkovError;
use crate::sequence::{validate_matrix, validate_vector, MarkovSequence};
use crate::source::{materialize, SourceError, StepSource};

/// A parse failure with its (1-based) line number.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line of the failure (0 = end of input).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Everything that can go wrong reading a sequence file.
#[derive(Debug)]
pub enum TextIoError {
    /// Syntactic problem.
    Parse(ParseError),
    /// The parsed data is not a valid Markov sequence.
    Model(MarkovError),
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

impl From<MarkovError> for TextIoError {
    fn from(e: MarkovError) -> Self {
        TextIoError::Model(e)
    }
}

/// Serializes a sequence to the v1 text format.
pub fn to_text(m: &MarkovSequence) -> String {
    let k = m.n_symbols();
    let mut out = String::new();
    out.push_str("markov-sequence v1\n");
    out.push_str("alphabet");
    for (_, name) in m.alphabet().iter() {
        let _ = write!(out, " {name}");
    }
    out.push('\n');
    let _ = writeln!(out, "length {}", m.len());
    out.push_str("initial");
    for &p in m.initial_dist() {
        let _ = write!(out, " {p}");
    }
    out.push('\n');
    for i in 0..m.len() - 1 {
        let _ = writeln!(out, "step {i}");
        for from in 0..k {
            let row = m.transition_row(i, SymbolId(from as u32));
            let rendered: Vec<String> = row.iter().map(|p| p.to_string()).collect();
            let _ = writeln!(out, "{}", rendered.join(" "));
        }
    }
    out
}

/// Parses the v1 text format: a [`TmsTextSource`] over the text, drained
/// into a [`MarkovSequence`].
///
/// Every transition entry takes at least two bytes of the text (a number
/// and its separator), so a `length` whose `(n−1)·|Σ|²` entries the text
/// cannot hold is rejected at the `length` line, before any row is read.
pub fn from_text(text: &str) -> Result<MarkovSequence, TextIoError> {
    TmsTextSource::open(text.as_bytes(), Some(text.len()))
        .and_then(|mut src| materialize(&mut src))
        .map_err(|e| match e {
            SourceError::Parse { line, message } => {
                TextIoError::Parse(ParseError { line, message })
            }
            SourceError::Model(e) => TextIoError::Model(e),
            // Reading a `&str` cannot fail, and text has no binary layout.
            other => TextIoError::Parse(ParseError {
                line: 0,
                message: other.to_string(),
            }),
        })
}

/// A chunked, incremental reader of the v1 text format: a
/// [`StepSource`] that parses one `step` block at a time from any
/// [`BufRead`], holding one layer of state regardless of sequence length.
/// It is the format's only decoder: [`from_text`] drains one, so streamed
/// evaluation is bit-identical to the in-memory path (the same
/// `f64::from_str` parses feed both).
///
/// Each row is parsed straight into the layer buffer, which grows with
/// the numbers read and is reused across layers: a header claiming a
/// huge `|Σ|` or `length` sizes nothing until its rows arrive.
///
/// Forward-only: text readers (files, pipes, stdin) are consumed as they
/// are parsed. Use the binary format ([`crate::binio`]) when a
/// rewindable source is needed.
pub struct TmsTextSource<R> {
    reader: R,
    line_no: usize,
    /// Reused raw-line buffer.
    line: String,
    alphabet: Arc<Alphabet>,
    n: usize,
    initial: Vec<f64>,
    pos: usize,
    /// Reused layer buffer, grown as rows arrive.
    buf: Vec<f64>,
    trailing_checked: bool,
}

fn serr(line: usize, message: impl Into<String>) -> SourceError {
    SourceError::Parse {
        line,
        message: message.into(),
    }
}

/// The row a line of numbers fills, named only in error messages.
#[derive(Clone, Copy)]
enum Row {
    Initial,
    Step { step: usize, row: usize },
}

impl std::fmt::Display for Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Row::Initial => f.write_str("initial distribution"),
            Row::Step { step, row } => write!(f, "step {step} row {row}"),
        }
    }
}

/// Appends the `k` numbers of `body` to `out`. A bad number anywhere in
/// the line is reported before a wrong count, and at most `k` numbers are
/// kept, so `out` grows only with numbers the line actually holds.
fn parse_row(
    ln: usize,
    body: &str,
    k: usize,
    row: Row,
    out: &mut Vec<f64>,
) -> Result<(), SourceError> {
    let mut count = 0usize;
    for token in body.split_whitespace() {
        let p: f64 = token
            .parse()
            .map_err(|e| serr(ln, format!("bad number in {row}: {e}")))?;
        if count < k {
            out.push(p);
        }
        count += 1;
    }
    if count != k {
        return Err(serr(ln, format!("{row} has {count} entries, expected {k}")));
    }
    Ok(())
}

/// Whether `line` reads exactly `step {step}` (decimal, no sign or
/// leading zero), checked without formatting the expected header.
fn is_step_header(line: &str, step: usize) -> bool {
    line.strip_prefix("step ").is_some_and(|d| {
        d.bytes().all(|b| b.is_ascii_digit())
            && (d.len() == 1 || !d.starts_with('0'))
            && d.parse() == Ok(step)
    })
}

impl<R: BufRead> TmsTextSource<R> {
    /// Parses the header (magic line, alphabet, length, initial
    /// distribution), leaving the reader positioned before the first
    /// `step` block.
    pub fn new(reader: R) -> Result<Self, SourceError> {
        Self::open(reader, None)
    }

    /// [`TmsTextSource::new`] over an input known to hold `max_bytes`
    /// bytes: a `length` line claiming more entries than that many bytes
    /// can hold is rejected on the spot.
    fn open(reader: R, max_bytes: Option<usize>) -> Result<Self, SourceError> {
        let mut src = TmsTextSource {
            reader,
            line_no: 0,
            line: String::new(),
            alphabet: Arc::new(Alphabet::from_names(std::iter::empty::<&str>())),
            n: 0,
            initial: Vec::new(),
            pos: 0,
            buf: Vec::new(),
            trailing_checked: false,
        };

        let ln = src
            .read_meaningful()?
            .ok_or_else(|| serr(src.line_no, "empty input"))?;
        let header = src.line.trim();
        if header != "markov-sequence v1" {
            return Err(serr(
                ln,
                format!("expected \"markov-sequence v1\", found {header:?}"),
            ));
        }

        let ln = src
            .read_meaningful()?
            .ok_or_else(|| src.ended("alphabet line"))?;
        {
            let mut parts = src.line.split_whitespace();
            if parts.next() != Some("alphabet") {
                return Err(serr(ln, "expected \"alphabet <names…>\""));
            }
            let names: Vec<&str> = parts.collect();
            if names.is_empty() {
                return Err(serr(ln, "alphabet must have at least one symbol"));
            }
            let alphabet = Arc::new(Alphabet::from_names(names.iter().copied()));
            if alphabet.len() != names.len() {
                return Err(serr(ln, "duplicate symbol names in alphabet"));
            }
            src.alphabet = alphabet;
        }
        let k = src.alphabet.len();

        let ln = src
            .read_meaningful()?
            .ok_or_else(|| src.ended("length line"))?;
        src.n = src
            .line
            .trim()
            .strip_prefix("length")
            .map(str::trim)
            .ok_or_else(|| serr(ln, "expected \"length <n>\""))?
            .parse()
            .map_err(|e| serr(ln, format!("bad length: {e}")))?;
        let n = src.n;
        let entries = n.saturating_sub(1).saturating_mul(k).saturating_mul(k);
        if max_bytes.is_some_and(|bytes| entries > bytes.div_ceil(2)) {
            return Err(serr(
                ln,
                format!("length {n} needs {entries} transition entries; the text cannot hold them"),
            ));
        }
        if n == 0 {
            return Err(SourceError::Model(MarkovError::EmptySequence));
        }

        let ln = src
            .read_meaningful()?
            .ok_or_else(|| src.ended("initial line"))?;
        let body = src
            .line
            .trim()
            .strip_prefix("initial")
            .ok_or_else(|| serr(ln, "expected \"initial <p…>\""))?;
        parse_row(ln, body, k, Row::Initial, &mut src.initial)?;
        validate_vector(&src.initial, "initial", 0)?;
        Ok(src)
    }

    /// The error for input that ends before `what`: it names the last
    /// line read (0 if there was none).
    fn ended(&self, what: impl std::fmt::Display) -> SourceError {
        serr(self.line_no, format!("input ends: missing {what}"))
    }

    /// Reads the next nonempty, non-comment line into `self.line`,
    /// returning its 1-based number; `None` at end of input.
    fn read_meaningful(&mut self) -> Result<Option<usize>, SourceError> {
        loop {
            self.line.clear();
            let read = self.reader.read_line(&mut self.line)?;
            if read == 0 {
                return Ok(None);
            }
            self.line_no += 1;
            let t = self.line.trim();
            if !t.is_empty() && !t.starts_with('#') {
                return Ok(Some(self.line_no));
            }
        }
    }
}

impl<R: BufRead> StepSource for TmsTextSource<R> {
    fn alphabet(&self) -> &Arc<Alphabet> {
        &self.alphabet
    }

    fn len(&self) -> usize {
        self.n
    }

    fn initial(&self) -> &[f64] {
        &self.initial
    }

    fn position(&self) -> usize {
        self.pos
    }

    fn next_step(&mut self) -> Result<Option<&[f64]>, SourceError> {
        if self.pos + 1 >= self.n {
            if !self.trailing_checked {
                self.trailing_checked = true;
                if let Some(ln) = self.read_meaningful()? {
                    return Err(serr(
                        ln,
                        format!("unexpected trailing content: {:?}", self.line.trim()),
                    ));
                }
            }
            return Ok(None);
        }
        let step = self.pos;
        let k = self.alphabet.len();
        let t = transmark_obs::Timer::start();

        let ln = self
            .read_meaningful()?
            .ok_or_else(|| self.ended(format_args!("\"step {step}\" header")))?;
        if !is_step_header(self.line.trim(), step) {
            return Err(serr(
                ln,
                format!("expected \"step {step}\", found {:?}", self.line.trim()),
            ));
        }

        self.buf.clear();
        for row in 0..k {
            let ln = self
                .read_meaningful()?
                .ok_or_else(|| self.ended(format_args!("row {row} of step {step}")))?;
            parse_row(
                ln,
                self.line.trim(),
                k,
                Row::Step { step, row },
                &mut self.buf,
            )?;
        }
        validate_matrix(&self.buf, k, "transition", step)?;
        self.pos += 1;
        t.observe(transmark_obs::histogram!("dataplane.tms.decode_ns"));
        crate::obs::record_step(self.buf.len());
        Ok(Some(&self.buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{random_markov_sequence, RandomChainSpec};
    use crate::numeric::approx_eq;
    use crate::sequence::MarkovSequenceBuilder;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn length_the_text_cannot_hold_is_rejected() {
        // 67 bytes claiming 10^14 positions: rejected at the length line,
        // before any row is read.
        let text = "markov-sequence v1\nalphabet a b\nlength 100000000000000\ninitial 1 0\n";
        let line = |text: &str| match from_text(text) {
            Err(TextIoError::Parse(e)) => e.line,
            other => panic!("expected a parse error, got {other:?}"),
        };
        assert_eq!(line(text), 3);
        // A wide alphabet with every row line present but one number
        // long: 2000² claimed entries in ~18 KB are rejected up front too.
        let names: Vec<String> = (0..2000).map(|i| format!("s{i}")).collect();
        let mut wide = format!(
            "markov-sequence v1\nalphabet {}\nlength 2\ninitial 1{}\nstep 0\n",
            names.join(" "),
            " 0".repeat(1999)
        );
        wide.push_str(&"1\n".repeat(2000));
        assert_eq!(line(&wide), 3);
    }

    #[test]
    fn text_source_reserves_nothing_the_file_cannot_back() {
        // A header over 10^5 symbols implies 80 GB layers; the one step
        // holds a single number. The short row is a typed error, and the
        // layer buffer holds only the numbers read.
        let k = 100_000;
        let names: Vec<String> = (0..k).map(|i| format!("s{i}")).collect();
        let text = format!(
            "markov-sequence v1\nalphabet {}\nlength 2\ninitial 1{}\nstep 0\n1\n",
            names.join(" "),
            " 0".repeat(k - 1)
        );
        let mut src = TmsTextSource::new(text.as_bytes()).expect("a valid header");
        assert_eq!(src.buf.capacity(), 0);
        match src.next_step() {
            Err(SourceError::Parse { line: 6, message }) => {
                assert!(message.contains("has 1 entries"), "{message}")
            }
            other => panic!("expected a parse error on line 6, got {other:?}"),
        }
        assert!(src.buf.capacity() < k, "{}", src.buf.capacity());
        let mut src = TmsTextSource::new(text.as_bytes()).expect("a valid header");
        assert!(matches!(
            materialize(&mut src),
            Err(SourceError::Parse { line: 6, .. })
        ));
    }

    /// A `.tms` cut short after any line reports the last line it read:
    /// `line 40: input ends: missing row 0 of step 5`, never line 0.
    #[test]
    fn truncated_text_names_the_last_line_read() {
        let mut rng = StdRng::seed_from_u64(12);
        let m = random_markov_sequence(
            &RandomChainSpec {
                len: 4,
                n_symbols: 2,
                zero_prob: 0.2,
            },
            &mut rng,
        );
        let text = to_text(&m);
        let lines: Vec<&str> = text.lines().collect();
        let read = |cut: usize| {
            let short: String = lines[..cut].iter().map(|l| format!("{l}\n")).collect();
            TmsTextSource::new(short.as_bytes()).and_then(|mut src| materialize(&mut src))
        };
        for cut in 0..lines.len() {
            match read(cut) {
                Err(SourceError::Parse { line, message }) => {
                    assert_eq!(line, cut, "{message}");
                    let want = ["input ends: missing ", "empty input"][usize::from(cut == 0)];
                    assert!(message.starts_with(want), "line {line}: {message}");
                }
                other => panic!("cut after {cut} lines: expected a parse error, got {other:?}"),
            }
        }
        assert_eq!(
            read(7).unwrap_err().to_string(),
            "line 7: input ends: missing \"step 1\" header"
        );
    }

    #[test]
    fn round_trip_preserves_everything() {
        let mut rng = StdRng::seed_from_u64(77);
        for len in [1usize, 2, 5] {
            let m = random_markov_sequence(
                &RandomChainSpec {
                    len,
                    n_symbols: 3,
                    zero_prob: 0.3,
                },
                &mut rng,
            );
            let text = to_text(&m);
            let back = from_text(&text).expect("round trip parses");
            assert_eq!(back.len(), m.len());
            assert_eq!(back.n_symbols(), m.n_symbols());
            for s in 0..3 {
                assert_eq!(
                    back.alphabet().name(SymbolId(s)),
                    m.alphabet().name(SymbolId(s))
                );
            }
            assert_eq!(back.initial_dist(), m.initial_dist());
            for i in 0..len.saturating_sub(1) {
                for from in 0..3u32 {
                    assert_eq!(
                        back.transition_row(i, SymbolId(from)),
                        m.transition_row(i, SymbolId(from))
                    );
                }
            }
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "\n# weather model\nmarkov-sequence v1\n\nalphabet x y\nlength 2\n# start\ninitial 1 0\nstep 0\n0.5 0.5\n# dead row\n0 1\n";
        let m = from_text(text).unwrap();
        assert_eq!(m.len(), 2);
        assert!(approx_eq(
            m.transition_prob(0, SymbolId(0), SymbolId(1)),
            0.5,
            0.0,
            0.0
        ));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let cases: Vec<(&str, usize)> = vec![
            ("nope", 1),
            ("markov-sequence v1\nalphabet", 2),
            ("markov-sequence v1\nalphabet a a\nlength 1\ninitial 1", 2),
            ("markov-sequence v1\nalphabet a b\nlen 2", 3),
            (
                "markov-sequence v1\nalphabet a b\nlength 2\ninitial 1 0\nstep 1\n1 0\n0 1",
                5,
            ),
            (
                "markov-sequence v1\nalphabet a b\nlength 2\ninitial 1 0\nstep 0\n1 0 0\n0 1",
                6,
            ),
            (
                "markov-sequence v1\nalphabet a b\nlength 1\ninitial 1 0\ntrailing junk",
                5,
            ),
        ];
        for (text, line) in cases {
            match from_text(text) {
                Err(TextIoError::Parse(e)) => assert_eq!(e.line, line, "input {text:?}"),
                other => panic!("expected parse error at line {line} for {text:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn invalid_model_is_rejected_after_parsing() {
        // Rows parse but don't sum to 1.
        let text =
            "markov-sequence v1\nalphabet a b\nlength 2\ninitial 0.6 0.3\nstep 0\n1 0\n0 1\n";
        assert!(matches!(from_text(text), Err(TextIoError::Model(_))));
    }

    #[test]
    fn streamed_text_source_matches_in_memory_bitwise() {
        let mut rng = StdRng::seed_from_u64(123);
        for len in [1usize, 2, 6] {
            let m = random_markov_sequence(
                &RandomChainSpec {
                    len,
                    n_symbols: 3,
                    zero_prob: 0.4,
                },
                &mut rng,
            );
            let text = to_text(&m);
            let parsed = from_text(&text).unwrap();
            let mut src = TmsTextSource::new(text.as_bytes()).unwrap();
            assert_eq!(src.len(), parsed.len());
            assert_eq!(src.initial(), parsed.initial_dist());
            for i in 0..len - 1 {
                let layer = src.next_step().unwrap().expect("layer").to_vec();
                assert_eq!(layer, parsed.transition_matrix(i));
            }
            assert!(src.next_step().unwrap().is_none());
        }
    }

    #[test]
    fn streamed_text_source_rejects_what_from_text_rejects() {
        let bad = [
            "nope",
            "markov-sequence v1\nalphabet",
            "markov-sequence v1\nalphabet a a\nlength 1\ninitial 1",
            "markov-sequence v1\nalphabet a b\nlen 2",
            "markov-sequence v1\nalphabet a b\nlength 2\ninitial 1 0\nstep 1\n1 0\n0 1",
            "markov-sequence v1\nalphabet a b\nlength 2\ninitial 1 0\nstep 0\n1 0 0\n0 1",
            "markov-sequence v1\nalphabet a b\nlength 2\ninitial 0.6 0.3\nstep 0\n1 0\n0 1",
        ];
        for text in bad {
            let drained = TmsTextSource::new(text.as_bytes()).and_then(|mut s| {
                while s.next_step()?.is_some() {}
                Ok(())
            });
            assert!(drained.is_err(), "accepted {text:?}");
            assert!(from_text(text).is_err());
        }
        // Trailing junk is caught at end of stream.
        let trailing = "markov-sequence v1\nalphabet a b\nlength 1\ninitial 1 0\ntrailing junk";
        let mut s = TmsTextSource::new(trailing.as_bytes()).unwrap();
        assert!(s.next_step().is_err());
    }

    #[test]
    fn exact_float_round_trip_via_display() {
        // `f64::to_string` is shortest-round-trip, so parse(to_string(x)) == x.
        let m = {
            let a = Alphabet::of_chars("ab");
            MarkovSequenceBuilder::new(a, 2)
                .initial(SymbolId(0), 1.0 / 3.0)
                .initial(SymbolId(1), 2.0 / 3.0)
                .transition(0, SymbolId(0), SymbolId(0), 0.1)
                .transition(0, SymbolId(0), SymbolId(1), 0.9)
                .transition(0, SymbolId(1), SymbolId(1), 1.0)
                .build()
                .unwrap()
        };
        let back = from_text(&to_text(&m)).unwrap();
        assert_eq!(back.initial_dist()[0], 1.0 / 3.0);
        assert_eq!(back.transition_prob(0, SymbolId(0), SymbolId(0)), 0.1);
    }
}
