//! Pins the blocked operator composition to the loops it replaced, bit
//! for bit.
//!
//! `StepOperator::compose` and `apply` used to test every product for a
//! zero operand, and the two-stack flip composed the newest operator with
//! the identity. The reference below keeps those loops verbatim in
//! behaviour. The blocked kernel must return the same bits in all three
//! semirings, on operators with exact zeros, subnormal weights and
//! identity rows, at every dimension from 1 to past two blocks (so every
//! tail width runs), and a sliding window driven through pushes, evicts
//! and flips must hold the same stack state as the old one throughout.
//! Run it once more under `TRANSMARK_FORCE_SCALAR=1` to pin the scalar
//! build of the kernel as well as the AVX2 one.

use transmark_kernel::{Bool, MaxLog, Prob, Semiring, SlidingProduct, StepOperator};

/// The composition as it was: every product tested for a zero operand.
fn old_compose<S: Semiring>(m: usize, a: &[S::Elem], b: &[S::Elem]) -> Vec<S::Elem> {
    let mut out = vec![S::zero(); m * m];
    for r in 0..m {
        let a_row = &a[r * m..(r + 1) * m];
        let o_row = &mut out[r * m..(r + 1) * m];
        for (mid, &x) in a_row.iter().enumerate() {
            if S::is_zero(x) {
                continue;
            }
            let b_row = &b[mid * m..(mid + 1) * m];
            for (o, &y) in o_row.iter_mut().zip(b_row) {
                if !S::is_zero(y) {
                    S::accum(o, S::mul(x, y));
                }
            }
        }
    }
    out
}

/// `v · A` as it was.
fn old_apply<S: Semiring>(m: usize, a: &[S::Elem], v: &[S::Elem]) -> Vec<S::Elem> {
    let mut out = vec![S::zero(); m];
    for (r, &p) in v.iter().enumerate() {
        if S::is_zero(p) {
            continue;
        }
        let row = &a[r * m..(r + 1) * m];
        for (o, &w) in out.iter_mut().zip(row) {
            if !S::is_zero(w) {
                S::accum(o, S::mul(p, w));
            }
        }
    }
    out
}

fn identity<S: Semiring>(m: usize) -> Vec<S::Elem> {
    let mut cells = vec![S::zero(); m * m];
    for r in 0..m {
        cells[r * m + r] = S::one();
    }
    cells
}

/// The two-stack as it was: raw cell buffers, the flip composing the
/// newest operator with the identity.
struct OldSliding<S: Semiring> {
    m: usize,
    front: Vec<Vec<S::Elem>>,
    back: Vec<Vec<S::Elem>>,
    back_agg: Vec<S::Elem>,
}

impl<S: Semiring> OldSliding<S> {
    fn new(m: usize) -> Self {
        OldSliding {
            m,
            front: Vec::new(),
            back: Vec::new(),
            back_agg: identity::<S>(m),
        }
    }

    fn push(&mut self, op: Vec<S::Elem>) {
        self.back_agg = old_compose::<S>(self.m, &self.back_agg, &op);
        self.back.push(op);
    }

    fn evict(&mut self) -> bool {
        if self.front.is_empty() {
            if self.back.is_empty() {
                return false;
            }
            let mut agg = identity::<S>(self.m);
            for op in self.back.drain(..).rev() {
                agg = old_compose::<S>(self.m, &op, &agg);
                self.front.push(agg.clone());
            }
            self.back_agg = identity::<S>(self.m);
        }
        self.front.pop();
        true
    }

    fn apply_to(&self, v: &[S::Elem]) -> Vec<S::Elem> {
        match self.front.last() {
            Some(f) => old_apply::<S>(self.m, &self.back_agg, &old_apply::<S>(self.m, f, v)),
            None => old_apply::<S>(self.m, &self.back_agg, v),
        }
    }
}

/// Deterministic pseudo-random stream (no RNG dependency).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn unit(&mut self) -> f64 {
        self.next() as f64 / (1u64 << 53) as f64
    }
}

/// A semiring with a generator of the values its operators hold. None
/// holds `-0.0`: no `Prob` sum of non-negative products and no `MaxLog`
/// `ln` weight reaches it (`ln 1` is `+0.0`). It is the one value the
/// flip's move of the newest operator keeps where composing it with the
/// identity returned `+0.0`.
trait Sample: Semiring {
    fn sample(rng: &mut Lcg) -> Self::Elem;
    fn bits(e: Self::Elem) -> u64;
}

impl Sample for Prob {
    fn sample(rng: &mut Lcg) -> f64 {
        match rng.next() % 8 {
            0..=2 => 0.0,
            // Subnormal weights, and products that underflow to zero.
            3 => rng.unit() * 1e-310,
            4 => f64::from_bits(1 + rng.next() % 64),
            5 => 1.0,
            6 => rng.unit() * 4.0,
            _ => rng.unit(),
        }
    }
    fn bits(e: f64) -> u64 {
        e.to_bits()
    }
}

impl Sample for MaxLog {
    fn sample(rng: &mut Lcg) -> f64 {
        match rng.next() % 8 {
            0..=2 => f64::NEG_INFINITY,
            3 => -(rng.unit() + 1e-3) * 1e-310,
            4 => 0.0,
            5 => -((1 + rng.next() % 4) as f64),
            _ => rng.unit().ln(),
        }
    }
    fn bits(e: f64) -> u64 {
        e.to_bits()
    }
}

impl Sample for Bool {
    fn sample(rng: &mut Lcg) -> bool {
        rng.next().is_multiple_of(3)
    }
    fn bits(e: bool) -> u64 {
        e as u64
    }
}

/// A random operator; some rows are identity rows and some all zero.
fn random_cells<S: Sample>(m: usize, rng: &mut Lcg) -> Vec<S::Elem> {
    let mut cells: Vec<S::Elem> = (0..m * m).map(|_| S::sample(rng)).collect();
    for r in 0..m {
        match rng.next() % 6 {
            0 => {
                cells[r * m..(r + 1) * m].fill(S::zero());
                cells[r * m + r] = S::one();
            }
            1 => cells[r * m..(r + 1) * m].fill(S::zero()),
            _ => {}
        }
    }
    cells
}

fn assert_bits<S: Sample>(got: &[S::Elem], want: &[S::Elem], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        assert_eq!(S::bits(g), S::bits(w), "{what}: cell {i}: {g:?} vs {w:?}");
    }
}

fn pin_compose_and_apply<S: Sample>(seed: u64) {
    let mut rng = Lcg(seed);
    for m in 1..=33 {
        for _ in 0..6 {
            let a = random_cells::<S>(m, &mut rng);
            let b = random_cells::<S>(m, &mut rng);
            let v: Vec<S::Elem> = (0..m).map(|_| S::sample(&mut rng)).collect();
            let (oa, ob) = (
                StepOperator::<S>::from_cells(m, a.clone()),
                StepOperator::<S>::from_cells(m, b.clone()),
            );
            let want = old_compose::<S>(m, &a, &b);
            assert_bits::<S>(oa.compose(&ob).cells(), &want, &format!("compose m={m}"));
            // `compose_into` over a buffer holding another operator's
            // cells overwrites every one of them.
            let mut reused = StepOperator::from_cells(m, random_cells::<S>(m, &mut rng));
            oa.compose_into(&ob, &mut reused);
            assert_bits::<S>(reused.cells(), &want, &format!("compose_into m={m}"));
            assert_bits::<S>(
                &oa.apply(&v),
                &old_apply::<S>(m, &a, &v),
                &format!("apply m={m}"),
            );
            let id = StepOperator::<S>::identity(m);
            assert_bits::<S>(
                oa.compose(&id).cells(),
                &old_compose::<S>(m, &a, &identity::<S>(m)),
                &format!("compose with identity m={m}"),
            );
        }
    }
}

fn pin_window<S: Sample>(seed: u64) {
    let mut rng = Lcg(seed);
    for m in [1, 3, 4, 7, 8, 12, 17, 24, 31] {
        for window in [1, 2, 3, 5, 9] {
            let mut old = OldSliding::<S>::new(m);
            let mut new = SlidingProduct::<S>::new(m);
            for tick in 0..40 {
                if new.len() == window {
                    assert!(old.evict());
                    assert!(new.evict());
                }
                let cells = random_cells::<S>(m, &mut rng);
                old.push(cells.clone());
                if tick % 2 == 0 {
                    new.push(StepOperator::from_cells(m, cells));
                } else {
                    new.push_with(|buf| buf.copy_from_slice(&cells));
                }
                let what = format!("m={m} w={window} tick={tick}");
                let (front, back, agg) = new.parts();
                assert_eq!(front.len(), old.front.len(), "{what}: front");
                assert_eq!(back.len(), old.back.len(), "{what}: back");
                for (n, o) in front.iter().zip(&old.front) {
                    assert_bits::<S>(n.cells(), o, &format!("{what}: suffix product"));
                }
                for (n, o) in back.iter().zip(&old.back) {
                    assert_bits::<S>(n.cells(), o, &format!("{what}: raw operator"));
                }
                assert_bits::<S>(agg.cells(), &old.back_agg, &format!("{what}: back product"));
                let v: Vec<S::Elem> = (0..m).map(|_| S::sample(&mut rng)).collect();
                assert_bits::<S>(
                    &new.apply_to(&v),
                    &old.apply_to(&v),
                    &format!("{what}: apply"),
                );
            }
        }
    }
}

#[test]
fn prob_compose_and_apply_match_the_branchy_loops() {
    pin_compose_and_apply::<Prob>(1);
}

#[test]
fn maxlog_compose_and_apply_match_the_branchy_loops() {
    pin_compose_and_apply::<MaxLog>(2);
}

#[test]
fn bool_compose_and_apply_match_the_branchy_loops() {
    pin_compose_and_apply::<Bool>(3);
}

#[test]
fn prob_window_matches_the_old_two_stack() {
    pin_window::<Prob>(4);
}

#[test]
fn maxlog_window_matches_the_old_two_stack() {
    pin_window::<MaxLog>(5);
}

#[test]
fn bool_window_matches_the_old_two_stack() {
    pin_window::<Bool>(6);
}
