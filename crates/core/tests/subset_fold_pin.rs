//! Pins the Thm 4.8 and general confidence routes to the hashed folds they
//! replaced, bit for bit.
//!
//! Both routes step `(node, subset)` cells of a lazily determinized table
//! whose subsets are interned in discovery order, yet must sum exactly as
//! the hashed layer did: every source in ascending `(node, BitSet)` order,
//! targets ascending. The reference below is the previous seed, step,
//! reduction and checkpoint writer, kept verbatim in behaviour over the
//! ordered [`SortedLayer`] (which reads in the hashed layer's sorted
//! order). Every confidence must match bitwise through the forced routes,
//! the bind and a `ConfidenceSession`; the session's checkpoint must match
//! the reference's byte for byte after every step; and a session resumed
//! from the reference's blob must go on bit for bit.
//!
//! Long chains drive some cells' mass to exactly `0.0` while their sets
//! stay reachable: such a cell must stay present (stepped, reduced and
//! written to the blob), as its hashed key was.

mod common;

use common::SortedLayer;
use rand::{rngs::StdRng, RngExt, SeedableRng};

use transmark_core::generate::{random_transducer, RandomTransducerSpec, TransducerClass};
use transmark_core::incremental::{CHECKPOINT_MAGIC, CHECKPOINT_VERSION};
use transmark_core::kernelize::{emission_id_for, output_step_graph, state_step_graph};
use transmark_core::{
    confidence_general, confidence_uniform_nfa, prepare, BitSet, MarkovSequence, PlanKind,
    PreparedQuery, StateId, SymbolId, Transducer,
};
use transmark_kernel::StepGraph;
use transmark_markov::generate::{random_markov_sequence, RandomChainSpec};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Route {
    UniformNfa(usize),
    General,
}

/// One hashed subset route, as the confidence pass ran it before the
/// interned table.
struct HashedPass<'t> {
    t: &'t Transducer,
    route: Route,
    o: Vec<SymbolId>,
    graph: StepGraph,
    cap: usize,
    n_nodes: usize,
    consumed: usize,
    overrun: bool,
    layer: SortedLayer<(u32, BitSet)>,
}

impl<'t> HashedPass<'t> {
    /// Seeds the route; `len` is the stream length when known upfront.
    fn seed(
        t: &'t Transducer,
        route: Route,
        initial: &[f64],
        o: &[SymbolId],
        len: Option<usize>,
    ) -> Self {
        let nq = t.n_states();
        let (graph, cap, overrun, layer) = match route {
            Route::UniformNfa(k) => {
                let overrun = o.len() < k || len.is_some_and(|n| o.len() != k * n);
                let graph = state_step_graph(t);
                let layer = if overrun {
                    SortedLayer::new()
                } else {
                    uniform_nfa_seed(t, &graph, initial, emission_id_for(t, &o[..k]))
                };
                (graph, nq.max(1), overrun, layer)
            }
            Route::General => {
                let graph = output_step_graph(t, o);
                let width = o.len() + 1;
                let cap = (nq * width).max(1);
                let init_row = (t.initial().index() * width) as u32;
                let layer = general_seed(&graph, initial, init_row, cap);
                (graph, cap, false, layer)
            }
        };
        HashedPass {
            t,
            route,
            o: o.to_vec(),
            graph,
            cap,
            n_nodes: initial.len(),
            consumed: 0,
            overrun,
            layer,
        }
    }

    fn step(&mut self, matrix: &[f64]) {
        let i = self.consumed;
        self.consumed += 1;
        let layer = std::mem::replace(&mut self.layer, SortedLayer::new());
        self.layer = match self.route {
            Route::UniformNfa(k) => {
                if !self.overrun && self.o.len() < k * (i + 2) {
                    self.overrun = true;
                }
                if self.overrun {
                    self.layer = layer;
                    return;
                }
                let expected = emission_id_for(self.t, &self.o[k * (i + 1)..k * (i + 2)]);
                uniform_nfa_step(self.t, &self.graph, layer, matrix, self.n_nodes, expected)
            }
            Route::General => general_step(&self.graph, layer, matrix, self.n_nodes, self.cap),
        };
    }

    fn confidence(&self) -> f64 {
        let t = self.t;
        let o_len = self.o.len();
        match self.route {
            Route::UniformNfa(k) => {
                if self.overrun || o_len != k * (self.consumed + 1) {
                    return 0.0;
                }
                let accepting = BitSet::from_iter_with_capacity(
                    t.n_states().max(1),
                    (0..t.n_states()).filter(|&q| t.is_accepting(StateId(q as u32))),
                );
                self.layer.reduce(|(_, set)| set.intersects(&accepting))
            }
            Route::General => {
                let width = o_len + 1;
                self.layer.reduce(|(_, set)| {
                    (0..t.n_states()).any(|q| {
                        t.is_accepting(StateId(q as u32)) && set.contains(q * width + o_len)
                    })
                })
            }
        }
    }

    /// The `TMKC` confidence checkpoint of this state.
    fn blob(&self, plan: &PreparedQuery) -> Vec<u8> {
        let mut w = Vec::new();
        w.extend_from_slice(&CHECKPOINT_MAGIC);
        w.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        w.push(2); // CheckpointKind::Confidence
        w.extend_from_slice(&confidence_fingerprint(plan, &self.o).to_le_bytes());
        w.extend_from_slice(&(self.consumed as u64).to_le_bytes());
        w.extend_from_slice(&(self.n_nodes as u32).to_le_bytes());
        w.push(self.overrun as u8);
        w.push(match self.route {
            Route::UniformNfa(_) => 3,
            Route::General => 4,
        });
        write_subset_layer(&mut w, &self.layer);
        w
    }
}

fn uniform_nfa_seed(
    t: &Transducer,
    graph: &StepGraph,
    initial: &[f64],
    seed_id: u32,
) -> SortedLayer<(u32, BitSet)> {
    let nq = t.n_states();
    let mut layer = SortedLayer::new();
    for (node, &p) in initial.iter().enumerate() {
        if p == 0.0 {
            continue;
        }
        let mut set = BitSet::new(nq.max(1));
        for e in graph.edges(node as u32, t.initial().0) {
            if e.payload == seed_id {
                set.insert(e.to as usize);
            }
        }
        if !set.is_empty() {
            layer.add((node as u32, set), p);
        }
    }
    layer
}

fn uniform_nfa_step(
    t: &Transducer,
    graph: &StepGraph,
    layer: SortedLayer<(u32, BitSet)>,
    matrix: &[f64],
    n_sym: usize,
    expected: u32,
) -> SortedLayer<(u32, BitSet)> {
    let nq = t.n_states();
    let mut next = SortedLayer::new();
    for ((node, set), p) in layer.sorted() {
        let row = &matrix[node as usize * n_sym..(node as usize + 1) * n_sym];
        for (to, &pt) in row.iter().enumerate() {
            if pt <= 0.0 {
                continue;
            }
            let mut set2 = BitSet::new(nq.max(1));
            for q in set.iter() {
                for e in graph.edges(to as u32, q as u32) {
                    if e.payload == expected {
                        set2.insert(e.to as usize);
                    }
                }
            }
            if !set2.is_empty() {
                next.add((to as u32, set2), p * pt);
            }
        }
    }
    next
}

fn general_seed(
    graph: &StepGraph,
    initial: &[f64],
    init_row: u32,
    cap: usize,
) -> SortedLayer<(u32, BitSet)> {
    let mut layer = SortedLayer::new();
    for (node, &p) in initial.iter().enumerate() {
        if p == 0.0 {
            continue;
        }
        let mut set = BitSet::new(cap);
        for e in graph.edges(node as u32, init_row) {
            set.insert(e.to as usize);
        }
        if !set.is_empty() {
            layer.add((node as u32, set), p);
        }
    }
    layer
}

fn general_step(
    graph: &StepGraph,
    layer: SortedLayer<(u32, BitSet)>,
    matrix: &[f64],
    n_sym: usize,
    cap: usize,
) -> SortedLayer<(u32, BitSet)> {
    let mut next = SortedLayer::new();
    for ((node, set), p) in layer.sorted() {
        let row = &matrix[node as usize * n_sym..(node as usize + 1) * n_sym];
        for (to, &pt) in row.iter().enumerate() {
            if pt <= 0.0 {
                continue;
            }
            let mut set2 = BitSet::new(cap);
            for bit in set.iter() {
                for e in graph.edges(to as u32, bit as u32) {
                    set2.insert(e.to as usize);
                }
            }
            if !set2.is_empty() {
                next.add((to as u32, set2), p * pt);
            }
        }
    }
    next
}

fn write_subset_layer(w: &mut Vec<u8>, layer: &SortedLayer<(u32, BitSet)>) {
    let entries = layer.sorted();
    w.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for ((node, set), p) in entries {
        w.extend_from_slice(&node.to_le_bytes());
        w.extend_from_slice(&(set.capacity() as u32).to_le_bytes());
        let bits: Vec<usize> = set.iter().collect();
        w.extend_from_slice(&(bits.len() as u32).to_le_bytes());
        for b in bits {
            w.extend_from_slice(&(b as u32).to_le_bytes());
        }
        w.extend_from_slice(&p.to_bits().to_le_bytes());
    }
}

fn confidence_fingerprint(plan: &PreparedQuery, o: &[SymbolId]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ plan.fingerprint();
    h = h.wrapping_mul(0x0000_0100_0000_01b3);
    for &s in o {
        h ^= s.index() as u64 + 1;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ (o.len() as u64)
}

/// Compares `route` on `(t, m, o)` against the reference: the forced
/// route's one-shot confidence, and, when it is the plan's own route, the
/// bind's confidence and a session's confidence and blob after every step
/// plus resumes from the reference's blobs at up to 8 splits. Returns the
/// present zero-mass cells the session's reference saw.
fn assert_pinned(
    t: &Transducer,
    m: &MarkovSequence,
    o: &[SymbolId],
    route: Route,
    ctx: &str,
) -> usize {
    let mut one_shot = HashedPass::seed(t, route, m.initial_dist(), o, Some(m.len()));
    for i in 0..m.len() - 1 {
        one_shot.step(m.transition_matrix(i));
    }
    let want = one_shot.confidence();
    let forced = match route {
        Route::UniformNfa(_) => confidence_uniform_nfa(t, m, o),
        Route::General => confidence_general(t, m, o),
    }
    .unwrap();
    assert_eq!(
        forced.to_bits(),
        want.to_bits(),
        "{ctx}: forced {forced} vs {want}"
    );

    let plan = prepare(t);
    let own = match plan.kind() {
        PlanKind::UniformNfa { k } => Route::UniformNfa(k),
        PlanKind::General => Route::General,
        _ => return 0,
    };
    if own != route {
        return 0;
    }
    let bound = plan.bind(m).unwrap().confidence(o).unwrap();
    assert_eq!(
        bound.to_bits(),
        want.to_bits(),
        "{ctx}: bind {bound} vs {want}"
    );

    let mut reference = HashedPass::seed(t, route, m.initial_dist(), o, None);
    let mut session = plan.begin_confidence(m.initial_dist(), o).unwrap();
    let mut series = Vec::with_capacity(m.len());
    let mut blobs = Vec::with_capacity(m.len());
    let mut zero_cells = 0;
    for i in 0..m.len() {
        if i > 0 {
            reference.step(m.transition_matrix(i - 1));
            session.step(m.transition_matrix(i - 1)).unwrap();
        }
        let (got, expect) = (session.finish(), reference.confidence());
        assert_eq!(
            got.to_bits(),
            expect.to_bits(),
            "{ctx}: position {i}: {got} vs {expect}"
        );
        let blob = reference.blob(&plan);
        assert!(
            session.checkpoint() == blob,
            "{ctx}: checkpoint blob differs at {i}"
        );
        series.push(expect);
        blobs.push(blob);
        zero_cells += reference.layer.zero_cells();
    }
    for split in (0..m.len()).step_by(m.len().div_ceil(8)) {
        let mut resumed = plan.resume_confidence(o, &blobs[split]).unwrap();
        for (i, expect) in series.iter().enumerate().skip(split + 1) {
            resumed.step(m.transition_matrix(i - 1)).unwrap();
            let got = resumed.finish();
            assert_eq!(
                got.to_bits(),
                expect.to_bits(),
                "{ctx}: resumed at {split}, position {i}"
            );
        }
    }
    zero_cells
}

/// A string drawn from `m`.
fn sample(m: &MarkovSequence, rng: &mut StdRng) -> Vec<SymbolId> {
    let draw = |dist: &[f64], rng: &mut StdRng| {
        let mut u = rng.random_range(0.0..1.0);
        for (s, &p) in dist.iter().enumerate() {
            if u < p {
                return s;
            }
            u -= p;
        }
        dist.iter().rposition(|&p| p > 0.0).unwrap()
    };
    let k = m.n_symbols();
    let mut s = vec![draw(m.initial_dist(), rng)];
    for i in 0..m.len() - 1 {
        let last = *s.last().unwrap();
        s.push(draw(&m.transition_matrix(i)[last * k..(last + 1) * k], rng));
    }
    s.into_iter().map(|x| SymbolId(x as u32)).collect()
}

/// The output of one random run of `t` on `s` (accepting or not), or a
/// random string when the run gets stuck: most sampled outputs keep some
/// cells alive to the end, the rest exercise dead sets.
fn output(t: &Transducer, s: &[SymbolId], rng: &mut StdRng) -> Vec<SymbolId> {
    let mut q = t.initial();
    let mut o = Vec::new();
    for &x in s {
        let edges = t.edges(q, x);
        if edges.is_empty() {
            let len = rng.random_range(0..=2 * s.len());
            let d = t.n_output_symbols() as u32;
            return (0..len).map(|_| SymbolId(rng.random_range(0..d))).collect();
        }
        let e = edges[rng.random_range(0..edges.len())];
        o.extend_from_slice(t.emission(e.emission));
        q = e.target;
    }
    o
}

fn machine(class: TransducerClass, n_states: usize, k: usize, rng: &mut StdRng) -> Transducer {
    random_transducer(
        &RandomTransducerSpec {
            n_states,
            n_input_symbols: k,
            n_output_symbols: rng.random_range(1..=3),
            class,
            branching: rng.random_range(1.2..2.4),
        },
        rng,
    )
}

fn route_of(t: &Transducer) -> Route {
    t.uniform_emission()
        .map_or(Route::General, Route::UniformNfa)
}

#[test]
fn subset_folds_match_the_hashed_folds_on_random_machines() {
    let mut rng = StdRng::seed_from_u64(0x5eb5_e7f0);
    let mut sessions = 0;
    for case in 0..360 {
        let class = [
            TransducerClass::Uniform(1),
            TransducerClass::Uniform(2),
            TransducerClass::General,
        ][case % 3];
        let k = rng.random_range(1..=3);
        let t = machine(class, rng.random_range(1..=5), k, &mut rng);
        let spec = RandomChainSpec {
            len: rng.random_range(1..=12),
            n_symbols: k,
            zero_prob: [0.0, 0.3, 0.6][(case / 3) % 3],
        };
        let m = random_markov_sequence(&spec, &mut rng);
        let o = output(&t, &sample(&m, &mut rng), &mut rng);
        let ctx = format!("case {case} ({class:?})");
        if route_of(&t) != Route::General {
            assert_pinned(&t, &m, &o, route_of(&t), &ctx);
        }
        assert_pinned(&t, &m, &o, Route::General, &ctx);
        sessions += matches!(
            prepare(&t).kind(),
            PlanKind::UniformNfa { .. } | PlanKind::General
        ) as usize;
    }
    assert!(sessions > 100, "too few cases ran a session");
}

#[test]
fn subset_folds_match_the_hashed_folds_on_table1() {
    let t = transmark_workloads::hospital::room_tracker();
    let m = transmark_workloads::hospital::hospital_sequence();
    let plan = prepare(&t);
    for answer in plan.bind(&m).unwrap().top_k_scored(8).unwrap() {
        if let Some(k) = t.uniform_emission() {
            assert_pinned(&t, &m, &answer.output, Route::UniformNfa(k), "table 1");
        }
        assert_pinned(&t, &m, &answer.output, Route::General, "table 1");
    }
}

#[test]
fn general_fold_matches_the_hashed_fold_on_the_blowup_gadget() {
    for n in [8, 12, 16, 20, 24] {
        let (t, m, o) = transmark_workloads::gadgets::confidence_blowup(n);
        assert_pinned(&t, &m, &o, Route::General, &format!("blowup n = {n}"));
        assert_pinned(
            &t,
            &m,
            &o[..o.len() - 1],
            Route::General,
            &format!("blowup n = {n}, shorter"),
        );
    }
}

/// `d` plus a twin of every edge into a non-accepting state with no way
/// out, emitting what the edge emits (`silent`: nothing): nondeterministic,
/// so on a Mealy `d` the plan takes Thm 4.8 (the general route if
/// `silent`), while every reachable set stays within one run of `d` plus
/// the dead end.
fn with_dead_twin(d: &Transducer, silent: bool) -> Transducer {
    let mut b = Transducer::builder(d.input_alphabet_arc(), d.output_alphabet_arc());
    for q in 0..d.n_states() as u32 {
        b.add_state(d.is_accepting(StateId(q)));
    }
    b.set_initial(d.initial());
    let dead_end = b.add_state(false);
    for (q, x, e) in d.transitions() {
        let em = d.emission(e.emission).to_vec();
        b.add_transition(q, x, e.target, &em).unwrap();
        b.add_transition(q, x, dead_end, if silent { &[] } else { &em })
            .unwrap();
    }
    b.build().unwrap()
}

#[test]
fn subset_folds_match_the_hashed_folds_through_underflow() {
    let mut rng = StdRng::seed_from_u64(0x0dd_f01d);
    let mut zero_cells = [0; 2];
    for case in 0..6 {
        let spec = RandomTransducerSpec {
            n_states: rng.random_range(2..=3),
            n_input_symbols: 2,
            n_output_symbols: 3,
            class: TransducerClass::Mealy,
            branching: 1.0,
        };
        let d = random_transducer(&spec, &mut rng);
        let t = with_dead_twin(&d, case % 2 == 1);
        let spec = RandomChainSpec {
            len: 2500,
            n_symbols: 2,
            zero_prob: 0.0,
        };
        let m = random_markov_sequence(&spec, &mut rng);
        // The output of `d`'s run on a sampled string, accepted or not.
        let (mut q, mut o) = (d.initial(), Vec::new());
        for x in sample(&m, &mut rng) {
            let e = d.edges(q, x)[0];
            o.extend_from_slice(d.emission(e.emission));
            q = e.target;
        }
        let ctx = format!("long case {case}");
        zero_cells[case % 2] += assert_pinned(&t, &m, &o, route_of(&t), &ctx);
    }
    assert!(
        zero_cells.iter().all(|&z| z > 0),
        "a route saw no reachable cell's mass driven to exactly 0: {zero_cells:?}"
    );
}
