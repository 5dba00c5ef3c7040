//! The stream monitor: one query multiplexed over many live streams.
//!
//! Lahar's workload (§6) is not one stream but a database of them — every
//! tracked object is its own Markov stream, and the system reports, "at
//! each time period", the probability that each stream satisfies the
//! query. The fleet helpers in the crate root evaluate one stream at a
//! time to completion; a [`Monitor`] instead keeps *every* stream's
//! incremental session in flight at once, each opened by the one
//! [`StreamQuery`] (prefix series or sliding window) that every worker
//! shares, and interleaves them in tick batches, the shape of a live
//! deployment where layers arrive continuously on thousands of streams
//! and none of them can be "finished first".
//!
//! Streams are assigned round-robin to `threads` workers; each worker
//! slices `batch` ticks per stream per scheduling round. The per-stream
//! arithmetic is exactly the single-stream session's — sessions never
//! interact and never rewind — so a monitor run is bit-identical to N
//! sequential runs at any worker count or batch size (asserted by the
//! tests here and by the CI smoke test).
//!
//! Each worker installs its own `monitor-N` profiler lane and the run
//! accounts under `store.monitor.*` (streams, ticks, workers, wall
//! time).

use std::path::PathBuf;

use transmark_automata::Nfa;
use transmark_core::incremental::{SlidingWindowQuery, StreamQuery, StreamSession};
use transmark_markov::{MarkovSequence, StepSource};

use crate::pool::resolve_threads;
use crate::StoreError;

/// Default ticks a worker advances one stream before moving to the next.
pub const DEFAULT_TICK_BATCH: usize = 64;

/// How a [`Monitor`] evaluates each stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorConfig {
    /// `Some(w)`: per-position sliding-window probability
    /// `Pr(S[t−w+1..t] ∈ L(A))` via [`SlidingWindowQuery`] (amortized
    /// one `m × m` operator composition per tick over the query's `m`
    /// lifted cells, no rewind). `None`: Lahar's native prefix series
    /// `Pr(S[1..t] ∈ L(A))` via
    /// [`EventSession`](transmark_core::incremental::EventSession).
    pub window: Option<usize>,
    /// Worker threads (`0` = one per core, [`resolve_threads`]).
    pub threads: usize,
    /// Ticks per stream per scheduling slice (`0` =
    /// [`DEFAULT_TICK_BATCH`]). Smaller batches interleave more finely;
    /// results are identical for any value.
    pub batch: usize,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            window: None,
            threads: 0,
            batch: DEFAULT_TICK_BATCH,
        }
    }
}

/// One stream's completed monitoring output.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// Stream name (file path display string or caller-supplied key).
    pub name: String,
    /// Probability series, one entry per consumed position (`series[t]`
    /// is the window or prefix probability after position `t + 1`).
    pub series: Vec<f64>,
    /// Positions consumed (= `series.len()`).
    pub positions: usize,
}

impl StreamReport {
    /// The final probability (last series entry).
    pub fn final_probability(&self) -> f64 {
        *self.series.last().expect("a stream has ≥ 1 position")
    }
}

/// One worker-owned stream mid-flight.
struct Active<'q, S> {
    idx: usize,
    name: String,
    src: S,
    /// The prefix fold or the sliding window.
    sess: StreamSession<'q>,
    series: Vec<f64>,
    done: bool,
}

/// A Boolean query multiplexed over many streams (see the module docs).
pub struct Monitor {
    nfa: Nfa,
    cfg: MonitorConfig,
}

impl Monitor {
    /// A monitor evaluating `query` under `cfg`.
    pub fn new(query: Nfa, cfg: MonitorConfig) -> Monitor {
        Monitor { nfa: query, cfg }
    }

    /// The query automaton.
    pub fn query(&self) -> &Nfa {
        &self.nfa
    }

    /// Monitors every `.tms` / `.tmsb` file in `paths`, streamed (each
    /// worker holds O(streams/workers · (|Σ|² + window state)) memory).
    /// Reports come back in input order; the first error wins.
    pub fn run_paths(&self, paths: &[PathBuf]) -> Result<Vec<StreamReport>, StoreError> {
        let names: Vec<String> = paths.iter().map(|p| p.display().to_string()).collect();
        self.run_generic(&names, |i| {
            transmark_markov::fsio::open_step_source(&paths[i])
                .map_err(|e| StoreError::Io(format!("{}: {e}", paths[i].display())))
        })
    }

    /// Monitors in-memory sequences (name, stream) — the store-resident
    /// counterpart of [`Monitor::run_paths`].
    pub fn run_sequences(
        &self,
        streams: &[(String, &MarkovSequence)],
    ) -> Result<Vec<StreamReport>, StoreError> {
        let names: Vec<String> = streams.iter().map(|(n, _)| n.clone()).collect();
        self.run_generic(&names, |i| Ok(streams[i].1.step_source()))
    }

    /// The multiplexer body: round-robin assignment, batched tick
    /// interleaving, scoped workers. `open(i)` builds stream `i`'s
    /// [`StepSource`] inside the worker that owns it.
    fn run_generic<S, F>(&self, names: &[String], open: F) -> Result<Vec<StreamReport>, StoreError>
    where
        S: StepSource,
        F: Fn(usize) -> Result<S, StoreError> + Sync,
    {
        if names.is_empty() {
            return Ok(Vec::new());
        }
        let n_threads = resolve_threads(self.cfg.threads).min(names.len());
        let batch = if self.cfg.batch == 0 {
            DEFAULT_TICK_BATCH
        } else {
            self.cfg.batch
        };
        // The query compiles once (for a window, its lifted table) and
        // is shared read-only by every worker's sessions.
        let query = match self.cfg.window {
            Some(w) => StreamQuery::Window(SlidingWindowQuery::new(self.nfa.clone(), w)?),
            None => StreamQuery::Series(self.nfa.clone()),
        };

        // The mode label splits monitor traffic by evaluation shape:
        // full-prefix event series vs. sliding-window queries.
        let mode = if self.cfg.window.is_some() {
            "window"
        } else {
            "series"
        };
        transmark_obs::counter!("store.monitor.runs").inc();
        transmark_obs::counter!("store.monitor.runs", mode = mode).inc();
        transmark_obs::gauge!("store.monitor.workers").set(n_threads as u64);
        transmark_obs::counter!("store.monitor.streams").add(names.len() as u64);
        transmark_obs::counter!("store.monitor.streams", mode = mode).add(names.len() as u64);
        let t_run = transmark_obs::Timer::start();
        let rec = transmark_obs::profile::current();

        let per_worker: Result<Vec<Vec<(usize, StreamReport)>>, StoreError> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..n_threads)
                    .map(|wi| {
                        let open = &open;
                        let query = &query;
                        let rec = rec.clone();
                        scope.spawn(move || {
                            let _lane = rec.as_ref().map(|r| r.install(format!("monitor-{wi}")));
                            let mut active: Vec<Active<'_, S>> = Vec::new();
                            // Round-robin ownership: worker wi takes
                            // streams wi, wi + n_threads, …
                            for idx in (wi..names.len()).step_by(n_threads) {
                                let src = open(idx)?;
                                let sess = query.start(src.initial())?;
                                let series = vec![sess.probability()];
                                active.push(Active {
                                    idx,
                                    name: names[idx].clone(),
                                    src,
                                    sess,
                                    series,
                                    done: false,
                                });
                            }
                            let mut ticks = 0u64;
                            let mut open_streams = active.len();
                            while open_streams > 0 {
                                for a in active.iter_mut().filter(|a| !a.done) {
                                    for _ in 0..batch {
                                        match a.src.next_step().map_err(|e| {
                                            StoreError::Io(format!("{}: {e}", a.name))
                                        })? {
                                            Some(matrix) => {
                                                a.sess.advance(matrix)?;
                                                a.series.push(a.sess.probability());
                                                ticks += 1;
                                            }
                                            None => {
                                                a.done = true;
                                                open_streams -= 1;
                                                break;
                                            }
                                        }
                                    }
                                }
                            }
                            transmark_obs::counter!("store.monitor.ticks").add(ticks);
                            Ok(active
                                .into_iter()
                                .map(|a| {
                                    let positions = a.series.len();
                                    (
                                        a.idx,
                                        StreamReport {
                                            name: a.name,
                                            series: a.series,
                                            positions,
                                        },
                                    )
                                })
                                .collect::<Vec<_>>())
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("monitor worker does not panic"))
                    .collect()
            });
        t_run.observe(transmark_obs::histogram!("store.monitor.wall_ns"));

        let mut reports: Vec<Option<StreamReport>> = (0..names.len()).map(|_| None).collect();
        for (idx, report) in per_worker?.into_iter().flatten() {
            reports[idx] = Some(report);
        }
        Ok(reports
            .into_iter()
            .map(|r| r.expect("every stream index is owned by exactly one worker"))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use transmark_automata::SymbolId;
    use transmark_core::PreparedEventQuery;
    use transmark_markov::generate::{random_markov_sequence, RandomChainSpec};

    /// NFA over 3 symbols: has seen symbol 2.
    fn has_two() -> Nfa {
        let mut nfa = Nfa::new(3);
        let q0 = nfa.add_state(false);
        let acc = nfa.add_state(true);
        for s in 0..3u32 {
            nfa.add_transition(q0, SymbolId(s), if s == 2 { acc } else { q0 });
            nfa.add_transition(acc, SymbolId(s), acc);
        }
        nfa
    }

    fn fleet(n: usize, seed: u64) -> Vec<(String, MarkovSequence)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let m = random_markov_sequence(
                    &RandomChainSpec {
                        len: 5 + i % 7,
                        n_symbols: 3,
                        zero_prob: 0.3,
                    },
                    &mut rng,
                );
                (format!("s{i:03}"), m)
            })
            .collect()
    }

    /// Monitor output is bit-equal to N independent sequential runs, at
    /// every worker count and batch size — the multiplexing is pure
    /// scheduling, never arithmetic.
    #[test]
    fn multiplexed_event_series_is_bit_equal_to_sequential() {
        let streams = fleet(13, 7);
        let refs: Vec<(String, &MarkovSequence)> =
            streams.iter().map(|(n, m)| (n.clone(), m)).collect();
        let sequential: Vec<Vec<f64>> = streams
            .iter()
            .map(|(_, m)| PreparedEventQuery::new(has_two()).series(m).unwrap())
            .collect();
        for threads in [1usize, 2, 4, 7] {
            for batch in [1usize, 3, 64] {
                let monitor = Monitor::new(
                    has_two(),
                    MonitorConfig {
                        window: None,
                        threads,
                        batch,
                    },
                );
                let reports = monitor.run_sequences(&refs).unwrap();
                assert_eq!(reports.len(), streams.len());
                for (i, r) in reports.iter().enumerate() {
                    assert_eq!(r.name, streams[i].0, "order preserved");
                    assert_eq!(r.positions, streams[i].1.len());
                    assert_eq!(
                        r.series.len(),
                        sequential[i].len(),
                        "threads {threads} batch {batch} stream {i}"
                    );
                    for (a, b) in r.series.iter().zip(&sequential[i]) {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "threads {threads} batch {batch} stream {i}"
                        );
                    }
                }
            }
        }
    }

    /// Same bit-parity for the sliding-window mode.
    #[test]
    fn multiplexed_window_series_is_bit_equal_to_sequential() {
        let streams = fleet(9, 21);
        let refs: Vec<(String, &MarkovSequence)> =
            streams.iter().map(|(n, m)| (n.clone(), m)).collect();
        let q = SlidingWindowQuery::new(has_two(), 3).unwrap();
        let sequential: Vec<Vec<f64>> = streams.iter().map(|(_, m)| q.series(m).unwrap()).collect();
        for threads in [1usize, 2, 4, 7] {
            let monitor = Monitor::new(
                has_two(),
                MonitorConfig {
                    window: Some(3),
                    threads,
                    batch: 2,
                },
            );
            let reports = monitor.run_sequences(&refs).unwrap();
            for (i, r) in reports.iter().enumerate() {
                for (a, b) in r.series.iter().zip(&sequential[i]) {
                    assert_eq!(a.to_bits(), b.to_bits(), "threads {threads} stream {i}");
                }
            }
        }
    }

    /// File-backed streams (mixed `.tms` / `.tmsb`) give the same bits
    /// as the in-memory run.
    #[test]
    fn file_backed_monitor_matches_in_memory() {
        let streams = fleet(8, 33);
        let dir = std::env::temp_dir().join(format!("transmark-monitor-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut paths = Vec::new();
        for (i, (name, m)) in streams.iter().enumerate() {
            let path = if i % 2 == 0 {
                let p = dir.join(format!("{name}.tms"));
                std::fs::write(&p, transmark_markov::textio::to_text(m)).unwrap();
                p
            } else {
                let p = dir.join(format!("{name}.tmsb"));
                std::fs::write(&p, transmark_markov::binio::to_tmsb_bytes(m)).unwrap();
                p
            };
            paths.push(path);
        }
        let monitor = Monitor::new(
            has_two(),
            MonitorConfig {
                window: Some(2),
                threads: 3,
                batch: 5,
            },
        );
        let from_files = monitor.run_paths(&paths).unwrap();
        let refs: Vec<(String, &MarkovSequence)> =
            streams.iter().map(|(n, m)| (n.clone(), m)).collect();
        let in_memory = monitor.run_sequences(&refs).unwrap();
        for (f, m) in from_files.iter().zip(in_memory.iter()) {
            assert_eq!(f.series.len(), m.series.len());
            for (a, b) in f.series.iter().zip(&m.series) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Errors (bad window, missing file) surface as typed errors, and an
    /// empty fleet is a clean no-op.
    #[test]
    fn monitor_edge_cases() {
        let monitor = Monitor::new(has_two(), MonitorConfig::default());
        assert!(monitor.run_paths(&[]).unwrap().is_empty());

        let bad_window = Monitor::new(
            has_two(),
            MonitorConfig {
                window: Some(0),
                ..MonitorConfig::default()
            },
        );
        let streams = fleet(1, 1);
        let refs: Vec<(String, &MarkovSequence)> =
            streams.iter().map(|(n, m)| (n.clone(), m)).collect();
        assert!(bad_window.run_sequences(&refs).is_err());

        let missing = vec![std::path::PathBuf::from("/nonexistent/x.tms")];
        assert!(matches!(
            monitor.run_paths(&missing),
            Err(StoreError::Io(_))
        ));
    }
}
