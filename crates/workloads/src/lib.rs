#![warn(missing_docs)]
// Index-based loops are the clearest way to write the matrix scans here;
// iterator rewrites obscure the (position, node, state) indexing.
#![allow(clippy::needless_range_loop)]

//! Workload generators for the `transmark` engine.
//!
//! * [`hospital`] — the paper's running example: the Figure 1 Markov
//!   sequence (hospital crash-cart locations), the Figure 2 transducer
//!   (place-visit extraction) and the Table 1 rows, reconstructed to
//!   reproduce every number printed in the paper.
//! * [`rfid`] — a synthetic RFID deployment: corridor of rooms, noisy
//!   sensors, HMM posterior → Markov sequences of arbitrary size
//!   (substitute for the Lahar production traces; see DESIGN.md).
//! * [`text`] — noisy text/OCR extraction scenarios for s-projectors
//!   (the `"Name:…"` example of §5).
//! * [`gadgets`] — hardness-gadget families in the spirit of the
//!   Theorem 4.4/4.5 and Theorem 5.3 reductions: instances where the
//!   `E_max` (resp. `I_max`) order diverges from the true confidence
//!   order by a measurable factor — exponential for general transducers,
//!   linear for s-projectors. These drive the Table 2 row-3 experiments.
//! * [`cyclic`] — an unbounded synthetic [`StepSource`] cycling a donor
//!   sequence's layers, for length sweeps of the streaming data plane.
//! * [`hostile`] — small sequence files whose size fields claim far more
//!   than they hold, for the decoders' regression tests.
//!
//! [`StepSource`]: transmark_markov::StepSource

pub mod bio;
pub mod cyclic;
pub mod gadgets;
pub mod hospital;
pub mod hostile;
pub mod rfid;
pub mod speech;
pub mod text;

pub use hospital::{hospital_sequence, room_tracker, table1_rows, Table1Row};
