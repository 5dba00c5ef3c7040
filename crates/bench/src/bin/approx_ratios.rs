//! Approximation-ratio curves (the Table 2 row-3 / §4.2–§5.2 story as
//! data series): how far the polynomial-time rankings drift from the true
//! confidence ranking as the sequence grows.
//!
//! Prints four series suitable for plotting:
//!  1. the `E_max` heuristic on the one-state Mealy gadget (exponential),
//!  2. the `I_max` heuristic on the simple-s-projector gadget (linear),
//!  3. space usage of the Thm 4.1 vs Thm 4.3 enumerations (the Table 2
//!     "PSPACE" annotations, measured),
//!  4. Proposition 5.9 bound tightness on random s-projector instances.
//!
//! Run with: `cargo run --release -p transmark-bench --bin approx_ratios`

use transmark_bench::sproj_instance;
use transmark_core::prepare;
use transmark_sproj::enumerate::imax_of_output;
use transmark_sproj::sproj_confidence;
use transmark_workloads::gadgets;

fn main() {
    println!("# series 1: E_max heuristic, one-state Mealy gadget (Thm 4.4 regime)");
    println!("# n  measured_ratio  analytic_ratio(1.5^n)");
    for n in [2usize, 4, 6, 8, 10, 12, 16, 20] {
        let (t, m) = gadgets::emax_gap(n);
        let bound = prepare(&t).bind(&m).expect("bind");
        let top_e = bound.top().expect("emax").expect("answers");
        let conf_e = bound.confidence(&top_e.output).expect("confidence");
        let conf_best = 0.6f64.powi(n as i32); // all-y answer, analytic
        println!(
            "{n:>3}  {:>14.4}  {:>14.4}",
            conf_best / conf_e,
            gadgets::emax_gap_expected_ratio(n)
        );
    }

    println!("\n# series 2: I_max heuristic, simple s-projector gadget (Thm 5.2/5.3 regime)");
    println!("# n  measured_ratio  upper_bound(n)  analytic(n(1-(1-1/n)^n))");
    for n in [2usize, 4, 8, 16, 32, 64, 128, 256] {
        let (p, m) = gadgets::imax_gap(n);
        let a = [m.alphabet().sym("a")];
        let conf = sproj_confidence(&p, &m, &a).expect("confidence");
        let imax = imax_of_output(&p, &m, &a).expect("imax");
        let (conf_want, imax_want) = gadgets::imax_gap_expected(n);
        println!(
            "{n:>4}  {:>14.4}  {:>14}  {:>14.4}",
            conf / imax,
            n,
            conf_want / imax_want
        );
    }

    println!("\n# series 3: space usage of the two §4 enumerations (Table 2 'PSPACE' notes)");
    println!("# answers_emitted  emax_frontier_subspaces  unranked_stack_depth");
    {
        use transmark_bench::instance_with_answer;
        use transmark_core::generate::TransducerClass;
        let (t, m, _) = instance_with_answer(TransducerClass::Deterministic, 16, 3, 3, 2024);
        let bound = prepare(&t).bind(&m).expect("bind");
        let mut ranked = bound.ranked().expect("enumerate");
        let mut unranked = bound.unranked().expect("enumerate");
        let mut max_stack = 0usize;
        for emitted in 1..=50usize {
            if ranked.next().is_none() {
                break;
            }
            let _ = unranked.next();
            max_stack = max_stack.max(unranked.stack_depth());
            if emitted % 10 == 0 || emitted == 1 {
                println!(
                    "{emitted:>16}  {:>23}  {:>20}",
                    ranked.frontier_len(),
                    max_stack
                );
            }
        }
        println!("# → the E_max frontier grows with the output (paper: no PSPACE bound for");
        println!("#   Thm 4.3); the unranked DFS stack stays bounded by the answer length");
        println!("#   (Thm 4.1's PSPACE guarantee).");
    }

    println!("\n# series 4: Prop. 5.9 tightness on random s-projectors");
    println!("# n  max_over_answers(conf/I_max)  bound(n)");
    for n in [8usize, 16, 32] {
        let mut worst: f64 = 1.0;
        for seed in 0..5u64 {
            let (p, m, _) = sproj_instance(n, 2, 2, 2, 100 + seed);
            // Inspect the top-32 distinct outputs.
            let outputs: Vec<_> = transmark_sproj::enumerate_by_imax(&p, &m)
                .expect("enumerate")
                .take(32)
                .collect();
            for r in outputs {
                let conf = sproj_confidence(&p, &m, &r.output).expect("confidence");
                let imax = r.score();
                if imax > 0.0 {
                    worst = worst.max(conf / imax);
                }
            }
        }
        println!("{n:>4}  {worst:>14.4}  {n:>8}");
    }
}
