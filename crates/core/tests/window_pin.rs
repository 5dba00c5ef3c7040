//! Pins the sliding window's results to the bits it produced before its
//! composition became a blocked, recycling kernel, and checks that a
//! filled window ticks without allocating.
//!
//! The golden hashes below were recorded with the branchy composition
//! and the allocating two-stack: the FNV-1a hash of every series value's
//! bits, and of a checkpoint blob taken after the two-stack has flipped
//! (its front holds suffix products and its back raw operators).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::{rngs::StdRng, SeedableRng};

use transmark_core::incremental::SlidingWindowQuery;
use transmark_core::{Nfa, SymbolId};
use transmark_markov::generate::{random_markov_sequence, RandomChainSpec};
use transmark_markov::MarkovSequence;

/// Counts this thread's allocations, so tests running in parallel do not
/// see each other's.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// "Contains 0 1 0" over three symbols: 3 × 8 = 24 lifted cells, so the
/// composition runs two full column blocks and a tail.
fn contains_010() -> Nfa {
    let mut nfa = Nfa::new(3);
    let q: Vec<_> = (0..4).map(|i| nfa.add_state(i == 3)).collect();
    for s in 0..3u32 {
        nfa.add_transition(q[0], SymbolId(s), q[0]);
        nfa.add_transition(q[3], SymbolId(s), q[3]);
    }
    nfa.add_transition(q[0], SymbolId(0), q[1]);
    nfa.add_transition(q[1], SymbolId(1), q[2]);
    nfa.add_transition(q[2], SymbolId(0), q[3]);
    nfa
}

fn chain(len: usize, seed: u64) -> MarkovSequence {
    let mut rng = StdRng::seed_from_u64(seed);
    random_markov_sequence(
        &RandomChainSpec {
            len,
            n_symbols: 3,
            zero_prob: 0.3,
        },
        &mut rng,
    )
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn series_hash(series: &[f64]) -> u64 {
    fnv1a(series.iter().flat_map(|p| p.to_bits().to_le_bytes()))
}

#[test]
fn window_series_match_their_golden_hashes() {
    let golden: [(usize, u64, u64); 4] = [
        (3, 11, 0xecf4_73e8_f728_a29d),
        (5, 12, 0x3c6d_5a73_2de6_0910),
        (8, 13, 0x6c6e_6968_2ebe_3490),
        (64, 14, 0x4108_d111_d5ee_7159),
    ];
    for (window, seed, want) in golden {
        let q = SlidingWindowQuery::new(contains_010(), window).unwrap();
        let series = q.series(&chain(400, seed)).unwrap();
        assert_eq!(series.len(), 400);
        let got = series_hash(&series);
        assert_eq!(got, want, "window {window}, seed {seed}");
    }
}

#[test]
fn window_blob_across_a_flip_matches_its_golden_hash() {
    // Width 8 holds 7 operators: the first evict (tick 8) flips all seven
    // into the front, and at tick 12 the front holds two suffix products
    // and the back five new raw operators.
    let q = SlidingWindowQuery::new(contains_010(), 8).unwrap();
    let m = chain(40, 21);
    let mut s = q.start(m.initial_dist()).unwrap();
    for i in 0..12 {
        s.advance(m.transition_matrix(i)).unwrap();
    }
    let blob = s.checkpoint();
    let got = fnv1a(blob.iter().copied());
    assert_eq!((blob.len(), got), (21103, 0xe221_c36e_386f_a484));
}

#[test]
fn a_filled_window_ticks_without_allocating() {
    let q = SlidingWindowQuery::new(contains_010(), 16).unwrap();
    let m = chain(400, 31);
    let mut s = q.start(m.initial_dist()).unwrap();
    // Fill the window and run through two flips first.
    for i in 0..64 {
        s.advance(m.transition_matrix(i)).unwrap();
    }
    let before = ALLOCATIONS.with(Cell::get);
    for i in 64..m.len() - 1 {
        s.advance(m.transition_matrix(i)).unwrap();
    }
    let during = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(
        during,
        0,
        "{during} allocations over {} ticks",
        m.len() - 65
    );
}
