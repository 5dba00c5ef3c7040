//! `rank-topk`: ranked queries in-process, one caller.
//!
//! The op cycles through E_max top-k with exact confidences (Thm 4.3) on
//! two RFID room trackers and two §5 indexed s-projector enumerations
//! (Thm 5.7) of a DNA motif. Lawler–Murty enumeration, per-answer
//! confidence and indexed ranking dominate; there is no wire or decode.

use std::sync::Arc;

use transmark::engine::{PreparedQuery, ScoredAnswer, Transducer};
use transmark::markov::MarkovSequence;
use transmark::obs::Recorder;
use transmark::sproj::{enumerate_indexed, IndexedAnswer, IndexedEvaluator, SProjector};
use transmark::workloads::{bio, hospital, rfid};
use transmark::Engine;

use crate::harness::{
    self, closed_loop, metric, span, span_mean_ns, Checks, Config, Outcome, TraceMode,
};

pub const NAME: &str = "rank-topk";

/// Posterior length under the lab-less tracker.
const N_SMALL: usize = 96;
/// Posterior length under the tracker that waits for the lab (room 2).
const N_LAB: usize = 192;
/// Posterior instances per E_max op, cycled. Ranking one n = 192
/// posterior takes anywhere from 20 to 110 ms, so a run cycles many to
/// keep one seed's draw from setting its numbers.
const POOL: usize = 64;
/// Uncertain reads, cycled by the two s-projector ops.
const READS: usize = 16;
/// The op schedule repeats every turn through the posterior pool (the
/// reads repeat twice as often).
const PERIOD: u64 = 4 * POOL as u64;
const READ_LEN: usize = 4096;
const MOTIF: &str = "GATTACA";
const K: usize = 4;
/// Instances per pool that a traced run splits into their parts.
const SPLIT_INSTANCES: usize = 8;
/// Relative rounding allowance of the order and bound checks.
const SLACK: f64 = 1e-12;

struct Inputs {
    small: Vec<MarkovSequence>,
    lab: Vec<MarkovSequence>,
    reads: Vec<MarkovSequence>,
    tracker: Transducer,
    lab_tracker: Transducer,
    motif: SProjector,
}

fn build(seed: u64) -> Result<Inputs, String> {
    let mut rng = harness::rng(seed, 2);
    let dep = rfid::deployment(&rfid::RfidSpec::default());
    let small = (0..POOL)
        .map(|_| dep.sample_posterior(N_SMALL, &mut rng).0)
        .collect();
    let lab = (0..POOL)
        .map(|_| dep.sample_posterior(N_LAB, &mut rng).0)
        .collect();
    let reads: Vec<bio::UncertainRead> = (0..READS)
        .map(|_| {
            let reference = bio::random_reference(READ_LEN, 0.5, &mut rng);
            bio::uncertain_read(&reference, &bio::ReadSpec::default())
        })
        .collect();
    let motif = reads[0].motif_extractor(MOTIF).map_err(|e| e.to_string())?;
    Ok(Inputs {
        small,
        lab,
        reads: reads.into_iter().map(|r| r.sequence).collect(),
        tracker: dep.room_tracker(None),
        lab_tracker: dep.room_tracker(Some(2)),
        motif,
    })
}

/// The paper's Table 1 row `1 2`: E_max 0.3969, confidence 0.4038.
fn golden() -> Result<(), String> {
    let t = hospital::room_tracker();
    let top = Engine::new()
        .prepare(&t)
        .bind(&hospital::hospital_sequence())
        .and_then(|b| b.top_k_scored(1))
        .map_err(|e| e.to_string())?;
    let a = top.first().ok_or("the hospital workload has no answer")?;
    let output = t.output_alphabet().render(&a.output, " ");
    let close = |x: f64, y: f64| (x - y).abs() < 1e-9;
    if output == "1 2" && close(a.emax, 0.3969) && close(a.confidence, hospital::CONF_12) {
        Ok(())
    } else {
        Err(format!(
            "Table 1 row: got {output:?} E_max {} confidence {}",
            a.emax, a.confidence
        ))
    }
}

/// E_max must not increase down the list, and E_max ≤ confidence ≤ 1,
/// each up to rounding.
fn check_ranked(answers: &[ScoredAnswer]) -> Result<(), String> {
    if answers.len() != K {
        return Err(format!("top-{K} returned {} answers", answers.len()));
    }
    let up_to_rounding = 1.0 + SLACK;
    for (i, a) in answers.iter().enumerate() {
        if i > 0 && a.emax > answers[i - 1].emax * up_to_rounding {
            return Err(format!("E_max rises at rank {}", i + 1));
        }
        if !(a.emax > 0.0
            && a.emax <= a.confidence * up_to_rounding
            && a.confidence <= up_to_rounding)
        {
            return Err(format!(
                "rank {}: E_max {} confidence {} out of order",
                i + 1,
                a.emax,
                a.confidence
            ));
        }
    }
    Ok(())
}

/// Indexed answers come in non-increasing confidence, each at most 1.
/// Tied answers (a motif read cleanly at two places) may differ in the
/// last bits, since each path's log weight is summed in its own order.
fn check_indexed(answers: &[IndexedAnswer], n: usize) -> Result<(), String> {
    if answers.len() != K {
        return Err(format!(
            "indexed top-{K} returned {} answers",
            answers.len()
        ));
    }
    for (i, a) in answers.iter().enumerate() {
        if i > 0 && a.log_confidence > answers[i - 1].log_confidence + SLACK {
            return Err(format!(
                "indexed confidence rises at rank {}: {:?}",
                i + 1,
                answers
                    .iter()
                    .map(|a| (a.index, a.log_confidence))
                    .collect::<Vec<_>>()
            ));
        }
        if !(a.confidence() > 0.0 && a.confidence() <= 1.0 + SLACK)
            || a.index == 0
            || a.index + MOTIF.len() - 1 > n
        {
            return Err(format!("indexed answer {i} out of range: {a:?}"));
        }
    }
    Ok(())
}

struct Plans {
    small: Arc<PreparedQuery>,
    lab: Arc<PreparedQuery>,
}

/// Op `i`: its kind is `i mod 4`; each kind cycles its own instances.
fn op(inp: &Inputs, plans: &Plans, i: u64, traced: bool) -> Result<(), String> {
    let j = (i / 4) as usize;
    let err = |e: transmark::engine::EngineError| e.to_string();
    match i % 4 {
        kind @ (0 | 1) => {
            let (plan, m) = if kind == 0 {
                (&plans.small, &inp.small[j % POOL])
            } else {
                (&plans.lab, &inp.lab[j % POOL])
            };
            let bound = {
                let _s = span(traced, "planner.bind");
                plan.bind(m).map_err(err)?
            };
            let _s = span(traced, "enumerate.top_k_scored");
            check_ranked(&bound.top_k_scored(K).map_err(err)?)
        }
        kind => {
            let m = &inp.reads[(2 * j + (kind as usize - 2)) % READS];
            let _s = span(traced, "sproj.enumerate_indexed");
            let answers: Vec<IndexedAnswer> = enumerate_indexed(&inp.motif, m)
                .map_err(err)?
                .take(K)
                .collect();
            check_indexed(&answers, m.len())
        }
    }
}

/// The program's set-up: a fresh engine, both trackers prepared, and one
/// warm-up op of each kind.
fn start(inp: &Inputs, checks: &mut Checks) -> Result<Plans, String> {
    let engine = Engine::new();
    let plans = Plans {
        small: engine.prepare(&inp.tracker),
        lab: engine.prepare(&inp.lab_tracker),
    };
    for i in 0..4 {
        checks.record(op(inp, &plans, i, false));
    }
    Ok(plans)
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let inp = build(cfg.seed)?;
    let mut checks = Checks::default();
    checks.record(golden());
    let m = harness::segmented(
        cfg.seconds,
        || start(&inp, &mut checks),
        |plans, first, seconds| {
            closed_loop(&mut [()], first, seconds, None, |_, i| {
                op(&inp, plans, i, false)
            })
        },
    )?;
    let metrics = harness::end_to_end(&m, PERIOD);
    checks.absorb(m.window.checks);
    Ok(Outcome {
        checks,
        metrics,
        profiles: None,
    })
}

/// Per-layer metrics of the enumerate and sproj layers.
pub fn trace(cfg: &Config, mode: TraceMode) -> Result<Outcome, String> {
    let inp = build(cfg.seed)?;
    let mut checks = Checks::default();
    checks.record(golden());
    let plans = start(&inp, &mut checks)?;
    let (_, profile, mut metrics) =
        harness::trace_phases(mode, cfg, PERIOD, &mut checks, |rec, seconds| {
            closed_loop(&mut [()], 0, seconds, rec, |_, i| {
                op(&inp, &plans, i, rec.is_some())
            })
        });

    // Each ranked query split into its parts, on the first instances of
    // each pool.
    let extra = Arc::new(Recorder::new());
    extra.scope(|| -> Result<(), String> {
        let err = |e: transmark::engine::EngineError| e.to_string();
        for j in 0..SPLIT_INSTANCES {
            for (plan, m, topk) in [
                (&plans.small, &inp.small[j], "enumerate.top_k.small"),
                (&plans.lab, &inp.lab[j], "enumerate.top_k.lab"),
            ] {
                // The plan memoizes graphs keyed by this instance's answer
                // prefixes and each bind builds its CSR on its first ranked
                // call: warm the first, and give each measured call a
                // fresh bind, so the calls differ only in their own work.
                let bind = || {
                    let _s = span(true, "planner.bind");
                    plan.bind(m).map_err(err)
                };
                {
                    let _s = span(true, "enumerate.warm_up");
                    checks.record(check_ranked(&bind()?.top_k_scored(K).map_err(err)?));
                }
                let bound = bind()?;
                {
                    let _s = span(true, "enumerate.top1");
                    bound.top().map_err(err)?;
                }
                let bound = bind()?;
                let answers = {
                    let _s = span(true, topk);
                    bound.top_k(K).map_err(err)?
                };
                // What `top_k_scored` adds to `top_k`: one confidence per
                // answer.
                let _s = span(true, "enumerate.score");
                for a in &answers {
                    bound.confidence(&a.output).map_err(err)?;
                }
            }
        }
        for m in &inp.reads[..SPLIT_INSTANCES] {
            {
                let _s = span(true, "sproj.evaluator");
                IndexedEvaluator::new(&inp.motif, m).map_err(err)?;
            }
            let _s = span(true, "sproj.enumerate");
            let answers: Vec<IndexedAnswer> = enumerate_indexed(&inp.motif, m)
                .map_err(err)?
                .take(K)
                .collect();
            checks.record(check_indexed(&answers, m.len()));
        }
        Ok(())
    })?;
    let p = extra.finish();
    let mean = |name: &str| span_mean_ns(&p, name);
    let topk = (mean("enumerate.top_k.small") + mean("enumerate.top_k.lab")) / 2.0;
    let evaluator = mean("sproj.evaluator");
    metrics.extend([
        metric("enumerate.topk_ms", topk / 1e6, "ms"),
        metric("enumerate.score_ms", mean("enumerate.score") / 1e6, "ms"),
        metric("enumerate.top1_us", mean("enumerate.top1") / 1e3, "us"),
        metric(
            "enumerate.growth_exponent",
            (mean("enumerate.top_k.lab") / mean("enumerate.top_k.small").max(1.0)).log2(),
            "ratio",
        ),
        metric("sproj.evaluator_ms", evaluator / 1e6, "ms"),
        metric(
            "sproj.ms_per_answer",
            (mean("sproj.enumerate") - evaluator) / K as f64 / 1e6,
            "ms",
        ),
    ]);
    Ok(Outcome {
        checks,
        metrics,
        profiles: Some((profile, p)),
    })
}
