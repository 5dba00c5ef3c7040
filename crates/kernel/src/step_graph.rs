//! Precompiled machine side of the product transitions.
//!
//! A layered DP's cell is `(markov node, machine row)`, where a "machine
//! row" flattens whatever the pass tracks per node — a transducer state
//! `q`, or a `(q, output position)` pair. Stepping the DP pairs a Markov
//! transition `node → to` with the machine edges enabled by reading `to`.
//! The hand-rolled passes re-derived those edges in the inner loop
//! (emission lookup, output-prefix comparison, target index arithmetic)
//! on every layer of every call; a [`StepGraph`] does that work once per
//! query and stores the surviving edges in a flat CSR indexed by
//! `(symbol, row)`.
//!
//! Buckets preserve insertion order, so a builder that adds edges in the
//! same order the hand-rolled loop visited them reproduces that loop's
//! accumulation sequence exactly — the bit-for-bit guarantee the migrated
//! passes rely on.

/// One precompiled machine edge: target row plus a caller-defined payload
/// (typically the interned emission id, used for Viterbi traceback or
/// per-step filtering).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineEdge {
    pub to: u32,
    pub payload: u32,
}

/// CSR over `(input symbol, machine row)` buckets of [`MachineEdge`]s.
#[derive(Debug, Clone)]
pub struct StepGraph {
    n_symbols: usize,
    n_rows: usize,
    offsets: Vec<u32>,
    edges: Vec<MachineEdge>,
}

impl StepGraph {
    pub fn builder(n_symbols: usize, n_rows: usize) -> StepGraphBuilder {
        StepGraphBuilder {
            n_symbols,
            n_rows,
            counts: vec![0; n_symbols * n_rows],
            added: Vec::new(),
        }
    }

    /// Number of machine rows per Markov node.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    #[inline]
    pub fn n_symbols(&self) -> usize {
        self.n_symbols
    }

    /// Edges enabled from `row` when the machine reads `symbol`, in the
    /// order they were added.
    #[inline]
    pub fn edges(&self, symbol: u32, row: u32) -> &[MachineEdge] {
        let b = symbol as usize * self.n_rows + row as usize;
        let lo = self.offsets[b] as usize;
        let hi = self.offsets[b + 1] as usize;
        &self.edges[lo..hi]
    }

    /// Total number of precompiled edges (diagnostics / bench reporting).
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Approximate heap footprint in bytes (plan-introspection cost
    /// reporting; excludes the struct header).
    pub fn approx_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.edges.len() * std::mem::size_of::<MachineEdge>()
    }

    /// Wraps the graph for cross-thread sharing. A [`StepGraph`] is a
    /// machine-side artifact — it depends only on the query, never on a
    /// Markov sequence — so a prepared query builds it once and every bind
    /// (on any thread) reads the same copy.
    pub fn into_shared(self) -> SharedStepGraph {
        std::sync::Arc::new(self)
    }
}

/// A machine-side step graph shared across binds and threads.
pub type SharedStepGraph = std::sync::Arc<StepGraph>;

// Machine-side artifacts must be shareable across threads; this fails to
// compile if `StepGraph` ever grows a non-`Send`/`Sync` field.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<StepGraph>();
};

/// Collects edges tagged with their `(symbol, row)` bucket, then places
/// them with one stable counting sort: a handful of allocations however
/// many buckets there are.
pub struct StepGraphBuilder {
    n_symbols: usize,
    n_rows: usize,
    /// Edges per bucket.
    counts: Vec<u32>,
    /// `(bucket, edge)` in insertion order.
    added: Vec<(u32, MachineEdge)>,
}

impl StepGraphBuilder {
    #[inline]
    pub fn add_edge(&mut self, symbol: u32, from_row: u32, to_row: u32, payload: u32) {
        let bucket = symbol as usize * self.n_rows + from_row as usize;
        self.counts[bucket] += 1;
        self.added.push((
            bucket as u32,
            MachineEdge {
                to: to_row,
                payload,
            },
        ));
    }

    pub fn build(self) -> StepGraph {
        let mut offsets = Vec::with_capacity(self.counts.len() + 1);
        offsets.push(0);
        let mut total = 0;
        for &c in &self.counts {
            total += c;
            offsets.push(total);
        }
        // Each bucket's next free slot; insertion order is kept within it.
        let mut next = offsets[..self.counts.len()].to_vec();
        let mut edges = vec![MachineEdge { to: 0, payload: 0 }; self.added.len()];
        for (bucket, e) in self.added {
            let slot = &mut next[bucket as usize];
            edges[*slot as usize] = e;
            *slot += 1;
        }
        StepGraph {
            n_symbols: self.n_symbols,
            n_rows: self.n_rows,
            offsets,
            edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_preserve_insertion_order() {
        let mut b = StepGraph::builder(2, 3);
        b.add_edge(1, 0, 2, 7);
        b.add_edge(1, 0, 1, 8);
        b.add_edge(0, 2, 0, 9);
        let g = b.build();
        assert_eq!(g.n_symbols(), 2);
        assert_eq!(g.n_rows(), 3);
        assert_eq!(g.n_edges(), 3);
        assert_eq!(
            g.edges(1, 0),
            &[
                MachineEdge { to: 2, payload: 7 },
                MachineEdge { to: 1, payload: 8 }
            ]
        );
        assert_eq!(g.edges(0, 2), &[MachineEdge { to: 0, payload: 9 }]);
        assert!(g.edges(0, 0).is_empty());
        assert!(g.edges(1, 2).is_empty());
    }
}
