//! Files whose size fields claim far more than the file holds.
//!
//! Each is a few bytes to under a megabyte on disk, yet a decoder that
//! sizes a buffer from its header would ask for terabytes (`length`) or
//! tens of gigabytes (`|Σ|²`, a transducer's `states`). Every decoder
//! must reject them with a typed error, having allocated only for the
//! bytes that arrived; these are the regression inputs for that rule.

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

/// A 115-byte `.tmt` over the input alphabet {a, b} whose `states` line
/// claims 4·10^9 states: a builder adding them asks for about 200 GB of
/// transition table.
pub const HUGE_STATES_TMT: &str = "transducer v1\ninput-alphabet a b\noutput-alphabet x\n\
states 4000000000\ninitial 0\naccepting 0\nedge 0 a 0\nedge 0 b 0 x\n";

/// All three sequence files with the names they are stored under; the
/// extension picks the decoder.
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
        assert_eq!(HUGE_STATES_TMT.len(), 115);
    }

    /// Past 2^20 table slots (`textio::FREE_SLOTS`), the `.tmt` decoder
    /// refuses a `states` count claiming more than one table slot (a
    /// state and an input symbol) per byte of text. Every machine the
    /// workloads build stays far inside that bound at any size, so all
    /// of them round trip through their text.
    #[test]
    fn shipped_machines_fit_the_states_bound() {
        use transmark_core::textio;
        let rfid = crate::rfid::deployment(&crate::rfid::RfidSpec::default());
        let machines = [
            crate::hospital::room_tracker(),
            rfid.room_tracker(None),
            rfid.room_tracker(Some(1)),
            crate::speech::demo_lexicon()
                .transducer()
                .expect("the demo lexicon builds"),
            crate::gadgets::emax_gap(12).0,
            crate::gadgets::projector_gap(12).0,
            crate::gadgets::amplified_emax_gap(4, 3).0,
        ];
        for t in machines {
            let text = textio::to_text(&t);
            let slots = t.n_states() * t.input_alphabet().len();
            assert!(
                4 * slots <= text.len(),
                "{slots} slots in {} bytes",
                text.len()
            );
            let back = textio::from_text(&text).expect("a shipped machine parses");
            assert_eq!(back.n_states(), t.n_states());
        }
    }
}
