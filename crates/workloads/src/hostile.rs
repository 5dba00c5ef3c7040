//! Sequence files whose size fields claim far more than the file holds.
//!
//! Each is a few bytes to under a megabyte on disk, yet a decoder that
//! sizes a buffer from its header would ask for terabytes (`length`) or
//! tens of gigabytes (`|Σ|²`). Every decoder must reject them with a
//! typed error, having allocated only for the bytes that arrived; these
//! are the regression inputs for that rule.

use transmark_automata::Alphabet;
use transmark_markov::binio::to_tmsb_bytes;
use transmark_markov::textio::to_text;
use transmark_markov::{MarkovSequence, MarkovSequenceBuilder};

/// The length the two `long_*` files claim: 10^14 positions, so a
/// decoder reserving `(n−1)·|Σ|²` doubles asks for about 3.2 PB.
const CLAIMED_LEN: u64 = 100_000_000_000_000;

/// The alphabet size of [`wide_text`]: its layers would span
/// `8·|Σ|²` = 80 GB.
const WIDE_SYMBOLS: usize = 100_000;

/// A valid two-symbol, two-position sequence: one step, whose file form
/// the `long_*` files relabel.
fn one_step() -> MarkovSequence {
    MarkovSequenceBuilder::new(Alphabet::of_chars("ab"), 2)
        .uniform_all()
        .build()
        .expect("a uniform chain is valid")
}

/// A 94-byte `.tms` holding one step but claiming [`CLAIMED_LEN`]
/// positions.
fn long_text() -> String {
    to_text(&one_step()).replace("length 2\n", &format!("length {CLAIMED_LEN}\n"))
}

/// A 96-byte `.tmsb` holding one layer but claiming [`CLAIMED_LEN`]
/// positions in its `n` field.
fn long_tmsb() -> Vec<u8> {
    let mut bytes = to_tmsb_bytes(&one_step());
    bytes[16..24].copy_from_slice(&CLAIMED_LEN.to_le_bytes());
    bytes
}

/// A `.tms` over [`WIDE_SYMBOLS`] symbols (about 889 KB, nearly all of
/// it the alphabet and initial lines) whose one step holds a single row
/// of a single number.
fn wide_text() -> String {
    let names: Vec<String> = (0..WIDE_SYMBOLS).map(|i| format!("s{i}")).collect();
    format!(
        "markov-sequence v1\nalphabet {}\nlength 2\ninitial 1{}\nstep 0\n1\n",
        names.join(" "),
        " 0".repeat(WIDE_SYMBOLS - 1)
    )
}

/// All three files with the names they are stored under; the extension
/// picks the decoder.
pub fn files() -> [(&'static str, Vec<u8>); 3] {
    [
        ("long.tms", long_text().into_bytes()),
        ("long-binary.tmsb", long_tmsb()),
        ("wide.tms", wide_text().into_bytes()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn files_are_small_and_claim_what_they_say() {
        assert_eq!(long_text().len(), 94);
        assert_eq!(long_tmsb().len(), 96);
        assert!(long_text().contains("length 100000000000000\n"));
        let wide = wide_text();
        assert!(wide.len() < 900_000, "{}", wide.len());
        assert!(wide.ends_with("step 0\n1\n"));
    }
}
