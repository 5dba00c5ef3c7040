//! The monitor multiplexer is a scheduling layer, not a numerics layer:
//! whatever the worker count or tick batch, every stream's series must
//! be bit-identical to evaluating that stream alone, sequentially.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

use transmark_core::generate::{random_transducer, RandomTransducerSpec, TransducerClass};
use transmark_core::incremental::SlidingWindowQuery;
use transmark_core::PreparedEventQuery;
use transmark_markov::generate::{random_markov_sequence, RandomChainSpec};
use transmark_markov::MarkovSequence;
use transmark_store::{Monitor, MonitorConfig};

fn query(seed: u64) -> transmark_automata::Nfa {
    let mut rng = StdRng::seed_from_u64(seed);
    random_transducer(
        &RandomTransducerSpec {
            n_states: 3,
            n_input_symbols: 2,
            n_output_symbols: 2,
            class: TransducerClass::General,
            branching: 1.5,
        },
        &mut rng,
    )
    .underlying_nfa()
}

fn streams(seed: u64, count: usize) -> Vec<(String, MarkovSequence)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xa5a5_a5a5);
    (0..count)
        .map(|i| {
            let m = random_markov_sequence(
                &RandomChainSpec {
                    // Deliberately ragged lengths: streams finish at
                    // different ticks, exercising the retire/backfill path.
                    len: 1 + (i * 7 + 3) % 11,
                    n_symbols: 2,
                    zero_prob: 0.3,
                },
                &mut rng,
            );
            (format!("s{i}"), m)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// 1, 2, 4, and 7 workers (more workers than streams included), with
    /// assorted tick batches, all produce series bit-identical to the
    /// sequential per-stream oracle.
    #[test]
    fn monitor_is_bit_equal_to_sequential(seed in any::<u64>(), count in 1usize..9, window in prop_oneof![Just(None), Just(Some(1)), Just(Some(3))]) {
        let nfa = query(seed);
        let seqs = streams(seed, count);
        let refs: Vec<(String, &MarkovSequence)> =
            seqs.iter().map(|(n, m)| (n.clone(), m)).collect();

        // The sequential oracle: each stream alone, in order.
        let oracle: Vec<Vec<f64>> = match window {
            Some(w) => {
                let q = SlidingWindowQuery::new(nfa.clone(), w).unwrap();
                seqs.iter().map(|(_, m)| q.series(m).unwrap()).collect()
            }
            None => seqs
                .iter()
                .map(|(_, m)| {
                    PreparedEventQuery::new(nfa.clone()).series(m).unwrap()
                })
                .collect(),
        };

        for threads in [1usize, 2, 4, 7] {
            for batch in [1usize, 3, 64] {
                let monitor = Monitor::new(
                    nfa.clone(),
                    MonitorConfig {
                        window,
                        threads,
                        batch,
                    },
                );
                let reports = monitor.run_sequences(&refs).unwrap();
                prop_assert_eq!(reports.len(), seqs.len());
                for (i, r) in reports.iter().enumerate() {
                    prop_assert_eq!(&r.name, &seqs[i].0, "order must match input");
                    prop_assert_eq!(
                        r.series.len(),
                        oracle[i].len(),
                        "threads {} batch {} stream {}",
                        threads, batch, i
                    );
                    for (a, b) in r.series.iter().zip(&oracle[i]) {
                        prop_assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "threads {} batch {} stream {}: {} vs {}",
                            threads, batch, i, a, b
                        );
                    }
                }
            }
        }
    }
}
