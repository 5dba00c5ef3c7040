//! A plain-text interchange format for Markov sequences, and the line
//! reader under every text format.
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
//!
//! [`LineReader`] (with [`parse_alphabet`]) is the reading core every
//! text decoder shares: this one, HMM text ([`crate::hmm_textio`]),
//! transducer text and s-projector text.

use std::fmt::{self, Write as _};
use std::io::BufRead;
use std::sync::Arc;

use transmark_automata::{Alphabet, SymbolId};

use crate::error::MarkovError;
use crate::sequence::{validate_matrix, validate_vector, MarkovSequence};
use crate::source::{materialize, SourceError, StepSource};

/// A parse failure with its (1-based) line number.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line of the failure. When the input ends early it is the
    /// last line read, so only an input with no line at all reports 0.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl ParseError {
    /// A failure at `line`.
    pub fn at(line: usize, message: impl Into<String>) -> Self {
        ParseError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// The one line reader under every text format: it yields the meaningful
/// lines of any [`BufRead`] (trimmed; blank and `#` lines skipped) with
/// their 1-based numbers, through one reused buffer.
///
/// Input that ends early is reported at the last line read, naming what
/// is missing. Reading can fail only in the reader underneath
/// ([`SourceError::Io`]); every other failure is a
/// [`SourceError::Parse`].
pub struct LineReader<R> {
    reader: R,
    line_no: usize,
    line: String,
    /// Where the current line lies in `line`, trimmed.
    span: std::ops::Range<usize>,
}

impl<R: BufRead> LineReader<R> {
    /// A reader positioned before the first line of `reader`.
    pub fn new(reader: R) -> Self {
        LineReader {
            reader,
            line_no: 0,
            line: String::new(),
            span: 0..0,
        }
    }

    /// Reads lines until a meaningful one; `false` at end of input.
    fn advance(&mut self) -> Result<bool, SourceError> {
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Ok(false);
            }
            self.line_no += 1;
            let t = self.line.trim_start();
            let start = self.line.len() - t.len();
            let t = t.trim_end();
            if !t.is_empty() && !t.starts_with('#') {
                self.span = start..start + t.len();
                return Ok(true);
            }
        }
    }

    /// The line [`Self::advance`] stopped at, trimmed.
    fn line(&self) -> &str {
        &self.line[self.span.clone()]
    }

    /// The next meaningful line and its number; `None` at end of input.
    pub fn next_line(&mut self) -> Result<Option<(usize, &str)>, SourceError> {
        Ok(self.advance()?.then(|| (self.line_no, self.line())))
    }

    /// The next meaningful line and its number. End of input is an error
    /// at the last line read: `input ends: missing {what}`.
    pub(crate) fn require(
        &mut self,
        what: impl fmt::Display,
    ) -> Result<(usize, &str), SourceError> {
        if !self.advance()? {
            let message = format!("input ends: missing {what}");
            return Err(ParseError::at(self.line_no, message).into());
        }
        Ok((self.line_no, self.line()))
    }

    /// Reads the format's first line, which must be exactly `magic`.
    pub fn magic(&mut self, magic: &str) -> Result<(), SourceError> {
        if !self.advance()? {
            return Err(ParseError::at(self.line_no, "empty input").into());
        }
        let found = self.line();
        if found != magic {
            let message = format!("expected {magic:?}, found {found:?}");
            return Err(ParseError::at(self.line_no, message).into());
        }
        Ok(())
    }

    /// Reads a `{kw} {usage}` line, returning its number and what follows
    /// the keyword, less leading whitespace. The keyword is a prefix:
    /// `length5` reads as `length 5`.
    pub fn keyword(&mut self, kw: &str, usage: &str) -> Result<(usize, &str), SourceError> {
        let (ln, line) = self.require(format_args!("{kw} line"))?;
        let rest = line
            .strip_prefix(kw)
            .ok_or_else(|| ParseError::at(ln, format!("expected \"{kw} {usage}\"")))?;
        Ok((ln, rest.trim_start()))
    }

    /// Reads a `{kw} <names…>` line as an alphabet (see
    /// [`parse_alphabet`]).
    pub fn alphabet(&mut self, kw: &str) -> Result<Alphabet, SourceError> {
        let (ln, names) = self.keyword(kw, "<names…>")?;
        Ok(parse_alphabet(ln, kw, names.split_whitespace())?)
    }

    /// Fails on any meaningful line left, for formats that end at a
    /// fixed line.
    pub fn finish(&mut self) -> Result<(), SourceError> {
        match self.next_line()? {
            Some((ln, extra)) => {
                let message = format!("unexpected trailing content: {extra:?}");
                Err(ParseError::at(ln, message).into())
            }
            None => Ok(()),
        }
    }
}

/// The alphabet a `{kw}` line lists: at least one name, none repeated.
pub fn parse_alphabet<S: AsRef<str>>(
    line: usize,
    kw: &str,
    names: impl IntoIterator<Item = S>,
) -> Result<Alphabet, ParseError> {
    let names: Vec<S> = names.into_iter().collect();
    if names.is_empty() {
        return Err(ParseError::at(
            line,
            format!("{kw} must have at least one symbol"),
        ));
    }
    let alphabet = Alphabet::from_names(&names);
    if alphabet.len() != names.len() {
        return Err(ParseError::at(line, format!("duplicate names in {kw}")));
    }
    Ok(alphabet)
}

/// Appends the `cols` numbers of `body`, the row named `what`, to `out`.
/// A bad number anywhere in the line is reported before a wrong count,
/// and at most `cols` numbers are kept, so `out` grows only with numbers
/// the line actually holds.
pub(crate) fn parse_row(
    line: usize,
    body: &str,
    cols: usize,
    what: impl fmt::Display,
    out: &mut Vec<f64>,
) -> Result<(), ParseError> {
    let mut count = 0usize;
    for token in body.split_whitespace() {
        let p: f64 = token
            .parse()
            .map_err(|e| ParseError::at(line, format!("bad number in {what}: {e}")))?;
        if count < cols {
            out.push(p);
        }
        count += 1;
    }
    if count != cols {
        return Err(ParseError::at(
            line,
            format!("{what} has {count} entries, expected {cols}"),
        ));
    }
    Ok(())
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
pub fn from_text(text: &str) -> Result<MarkovSequence, SourceError> {
    TmsTextSource::open(text.as_bytes(), Some(text.len())).and_then(|mut src| materialize(&mut src))
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
    lines: LineReader<R>,
    alphabet: Arc<Alphabet>,
    n: usize,
    initial: Vec<f64>,
    pos: usize,
    /// Reused layer buffer, grown as rows arrive.
    buf: Vec<f64>,
    trailing_checked: bool,
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
        let mut lines = LineReader::new(reader);
        lines.magic("markov-sequence v1")?;
        // Unlike the other keyword lines, `alphabet` must be a whole word
        // here: `alphabetx` is refused, not read as the alphabet {x}.
        let (ln, line) = lines.require("alphabet line")?;
        let mut names = line.split_whitespace();
        if names.next() != Some("alphabet") {
            return Err(ParseError::at(ln, "expected \"alphabet <names…>\"").into());
        }
        let alphabet = Arc::new(parse_alphabet(ln, "alphabet", names)?);
        let k = alphabet.len();

        let (ln, rest) = lines.keyword("length", "<n>")?;
        let n: usize = rest
            .parse()
            .map_err(|e| ParseError::at(ln, format!("bad length: {e}")))?;
        let entries = n.saturating_sub(1).saturating_mul(k).saturating_mul(k);
        if max_bytes.is_some_and(|bytes| entries > bytes.div_ceil(2)) {
            return Err(ParseError::at(
                ln,
                format!("length {n} needs {entries} transition entries; the text cannot hold them"),
            )
            .into());
        }
        if n == 0 {
            return Err(SourceError::Model(MarkovError::EmptySequence));
        }

        let (ln, body) = lines.keyword("initial", "<p…>")?;
        let mut initial = Vec::new();
        parse_row(ln, body, k, "initial distribution", &mut initial)?;
        validate_vector(&initial, "initial", 0)?;
        Ok(TmsTextSource {
            lines,
            alphabet,
            n,
            initial,
            pos: 0,
            buf: Vec::new(),
            trailing_checked: false,
        })
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
                self.lines.finish()?;
            }
            return Ok(None);
        }
        let step = self.pos;
        let k = self.alphabet.len();
        let t = transmark_obs::Timer::start();

        let (ln, header) = self.lines.require(format_args!("\"step {step}\" header"))?;
        if !is_step_header(header, step) {
            let message = format!("expected \"step {step}\", found {header:?}");
            return Err(ParseError::at(ln, message).into());
        }

        self.buf.clear();
        for row in 0..k {
            let (ln, body) = self
                .lines
                .require(format_args!("row {row} of step {step}"))?;
            parse_row(
                ln,
                body,
                k,
                format_args!("step {step} row {row}"),
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
            Err(SourceError::Parse(e)) => e.line,
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
            Err(SourceError::Parse(ParseError { line: 6, message })) => {
                assert!(message.contains("has 1 entries"), "{message}")
            }
            other => panic!("expected a parse error on line 6, got {other:?}"),
        }
        assert!(src.buf.capacity() < k, "{}", src.buf.capacity());
        let mut src = TmsTextSource::new(text.as_bytes()).expect("a valid header");
        assert!(matches!(
            materialize(&mut src),
            Err(SourceError::Parse(ParseError { line: 6, .. }))
        ));
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
                Err(SourceError::Parse(e)) => assert_eq!(e.line, line, "input {text:?}"),
                other => panic!("expected parse error at line {line} for {text:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn invalid_model_is_rejected_after_parsing() {
        // Rows parse but don't sum to 1.
        let text =
            "markov-sequence v1\nalphabet a b\nlength 2\ninitial 0.6 0.3\nstep 0\n1 0\n0 1\n";
        assert!(matches!(from_text(text), Err(SourceError::Model(_))));
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

    /// The reader yields each meaningful line trimmed, with its physical
    /// line number, through to a last line with no newline, whatever the
    /// size of the buffer under it; a line that is not UTF-8 fails as an
    /// I/O error.
    #[test]
    fn line_reader_numbers_trimmed_meaningful_lines() {
        use std::io::BufReader;
        fn read_all<R: BufRead>(reader: R) -> Result<Vec<(usize, String)>, SourceError> {
            let mut lines = LineReader::new(reader);
            let mut out = Vec::new();
            while let Some((ln, line)) = lines.next_line()? {
                out.push((ln, line.to_string()));
            }
            Ok(out)
        }
        let text = "# header\n\n  alphabet a b \r\n\t# indented\nlength 2\n\ninitial 1 0";
        let whole = read_all(text.as_bytes()).unwrap();
        let expected = [(3, "alphabet a b"), (5, "length 2"), (7, "initial 1 0")];
        let expected: Vec<_> = expected.iter().map(|&(n, l)| (n, l.to_string())).collect();
        assert_eq!(whole, expected);
        for cap in 1..=text.len() {
            let read = read_all(BufReader::with_capacity(cap, text.as_bytes())).unwrap();
            assert_eq!(read, expected, "buffer of {cap} bytes");
        }
        let bad: &[u8] = b"length 2\nalpha\xffbet\n";
        for cap in [1, 4, 64] {
            let mut lines = LineReader::new(BufReader::with_capacity(cap, bad));
            assert_eq!(lines.next_line().unwrap(), Some((1, "length 2")));
            match lines.next_line() {
                Err(SourceError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
                other => panic!("expected an I/O error, got {other:?}"),
            }
        }
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
