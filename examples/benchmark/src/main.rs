//! The repository benchmark. See README.md in this directory.
//!
//! ```text
//! benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1|DIR] [--json FILE]
//! benchmark --compare BASE_DIR NEW_DIR [--benchmark BENCHMARK.json]
//! ```
//!
//! `--workload NAME` measures one workload in this process and prints, as
//! its last stdout line, `{"correct", "attempted", "failed", "metrics"}`
//! with the end-to-end metrics (with `--trace 1|DIR`: the per-layer
//! metrics). It exits non-zero when any output was wrong. Without
//! `--workload`, every workload runs in a child process of its own and
//! each metric prints as `workload/metric value unit`.

mod harness;
mod long_chain;
mod rank_topk;
mod serve_small;
mod stats;
mod stream_session;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use transmark::obs::json::{self, Value};

use harness::{Config, Metric, Outcome, TraceMode};

type RunFn = fn(&Config) -> Result<Outcome, String>;
type TraceFn = fn(&Config, TraceMode) -> Result<Outcome, String>;

/// The workloads, in the order the all-workloads mode runs them.
const WORKLOADS: [(&str, RunFn, TraceFn); 4] = [
    (serve_small::NAME, serve_small::run, serve_small::trace),
    (rank_topk::NAME, rank_topk::run, rank_topk::trace),
    (long_chain::NAME, long_chain::run, long_chain::trace),
    (
        stream_session::NAME,
        stream_session::run,
        stream_session::trace,
    ),
];

/// Every per-layer metric a traced run reports, whichever workload it
/// traces: the traced workload's own, plus short probes of the others.
const PER_LAYER: [&str; 37] = [
    "serve.server_p50_us",
    "serve.wire_us",
    "serve.replay_gap_us",
    "serve.rejected",
    "serve.stream_us_per_chunk",
    "serve.stream_mb_per_s",
    "store.plan_cache.hit_rate",
    "store.plan_cache.evictions",
    "store.pool.queue_wait_p99_us",
    "store.monitor.ticks_per_s",
    "store.monitor.efficiency",
    "planner.parse_us",
    "planner.prepare_cold_us",
    "planner.prepare_hot_us",
    "planner.bind_us",
    "planner.bind_ns_per_layer",
    "planner.dense_share",
    "dataplane.text_ns_per_byte",
    "dataplane.tmsb_ns_per_byte",
    "dataplane.source_ns_per_layer",
    "kernel.confidence_ns_per_edge.dense",
    "kernel.confidence_ns_per_edge.sparse",
    "kernel.top_ns_per_edge",
    "kernel.series_ns_per_tick",
    "kernel.serve_execute_us",
    "enumerate.topk_ms",
    "enumerate.score_ms",
    "enumerate.top1_us",
    "enumerate.growth_exponent",
    "sproj.evaluator_ms",
    "sproj.ms_per_answer",
    "incremental.window_ns_per_tick",
    "incremental.series_ns_per_tick",
    "incremental.checkpoint_us",
    "incremental.checkpoint_bytes",
    "incremental.resume_us",
    "obs.trace_overhead",
];

const DEFAULT_SECONDS: f64 = 15.0;
const DEFAULT_TRACE_DIR: &str = ".bench_out/trace";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace_dir: Option<PathBuf>,
    json: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    benchmark: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace_dir: None,
        json: None,
        compare: None,
        benchmark: PathBuf::from("BENCHMARK.json"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                args.workload = (w != "all").then_some(w);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            // `--trace 0|1`, or `--trace DIR` to choose where traces go.
            "--trace" => {
                args.trace_dir = match value()?.as_str() {
                    "0" => None,
                    "1" => Some(PathBuf::from(DEFAULT_TRACE_DIR)),
                    dir => Some(PathBuf::from(dir)),
                }
            }
            "--json" => args.json = Some(PathBuf::from(value()?)),
            "--compare" => {
                let base = PathBuf::from(value()?);
                args.compare = Some((base, PathBuf::from(value()?)));
            }
            "--benchmark" => args.benchmark = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match (&args.compare, &args.workload) {
        (Some((base, new)), _) => compare(base, new, &args.benchmark),
        (None, Some(w)) => single(w, &args),
        (None, None) => all(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn number(v: f64) -> Value {
    Value::Float(if v.is_finite() { v } else { 0.0 })
}

fn metrics_object<'a>(metrics: impl IntoIterator<Item = (&'a str, f64, &'a str)>) -> Value {
    Value::Object(
        metrics
            .into_iter()
            .map(|(name, value, unit)| {
                let entry = BTreeMap::from([
                    ("value".to_string(), number(value)),
                    ("unit".to_string(), Value::Str(unit.to_string())),
                ]);
                (name.to_string(), Value::Object(entry))
            })
            .collect(),
    )
}

fn triples(metrics: &[Metric]) -> impl Iterator<Item = (&str, f64, &str)> {
    metrics.iter().map(|m| (m.name, m.value, m.unit))
}

/// One workload in this process: the result line last on stdout. Returns
/// whether every output was correct.
fn single(name: &str, args: &Args) -> Result<bool, String> {
    let (_, run, trace) = WORKLOADS
        .iter()
        .find(|(n, _, _)| *n == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
    };
    let outcome = match &args.trace_dir {
        None => run(&cfg)?,
        Some(dir) => traced(name, *trace, &cfg, dir)?,
    };
    for note in &outcome.checks.notes {
        eprintln!("benchmark: {name}: {note}");
    }
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{name}: {} is not a finite number", m.name));
    }
    let correct = outcome.checks.failed == 0;
    if let Some(path) = &args.json {
        let record = Record {
            workload: name.to_string(),
            attempted: outcome.checks.attempted,
            failed: outcome.checks.failed,
            metrics: triples(&outcome.metrics)
                .map(|(n, v, u)| (n.to_string(), v, u.to_string()))
                .collect(),
        };
        write_runs(path, &cfg, &[record])?;
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.checks.attempted,
        outcome.checks.failed,
        metrics_object(triples(&outcome.metrics)).to_json()
    );
    Ok(correct)
}

/// A traced run of `name`, with the other workloads probed for the
/// per-layer metrics only they reach. Writes `DIR/<name>.trace.json`
/// (Chrome trace of the traced load) and `DIR/<name>.layers.json`: self
/// time per layer in the traced load (`load`) and in the measurements that
/// split its ops into their calls (`split`), plus every per-layer metric.
fn traced(name: &str, trace: TraceFn, cfg: &Config, dir: &Path) -> Result<Outcome, String> {
    let mut outcome = trace(cfg, TraceMode::Full)?;
    let (mut load, split) = outcome
        .profiles
        .take()
        .ok_or("traced run returned no profile")?;
    for (other, _, probe) in WORKLOADS.iter().filter(|(n, _, _)| *n != name) {
        let p = probe(cfg, TraceMode::Probe).map_err(|e| format!("probe {other}: {e}"))?;
        outcome.checks.absorb(p.checks);
        outcome.metrics.extend(p.metrics);
    }
    let reported: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
    if let Some(missing) = PER_LAYER.iter().find(|n| !reported.contains(n)) {
        return Err(format!("traced run did not measure {missing}"));
    }

    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let write = |file: String, text: String| {
        let path = dir.join(file);
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
    };
    let self_times = |profile: &transmark::obs::ExecutionProfile| {
        let self_ns = harness::layer_self_ns(profile);
        let total: u64 = self_ns.values().sum();
        Value::Object(
            self_ns
                .iter()
                .map(|(layer, &ns)| {
                    let entry = BTreeMap::from([
                        ("self_ms".to_string(), number(ns as f64 / 1e6)),
                        (
                            "self_share".to_string(),
                            number(ns as f64 / total.max(1) as f64),
                        ),
                    ]);
                    (layer.to_string(), Value::Object(entry))
                })
                .collect(),
        )
    };
    let layers = BTreeMap::from([
        ("load".to_string(), self_times(&load)),
        ("split".to_string(), self_times(&split)),
    ]);
    let doc = BTreeMap::from([
        ("workload".to_string(), Value::Str(name.to_string())),
        ("seed".to_string(), Value::Int(cfg.seed)),
        ("layers".to_string(), Value::Object(layers)),
        (
            "metrics".to_string(),
            metrics_object(triples(&outcome.metrics)),
        ),
    ]);
    write(format!("{name}.layers.json"), Value::Object(doc).to_json())?;
    harness::thin_counters(&mut load);
    write(
        format!("{name}.trace.json"),
        transmark::obs::trace::chrome_trace(&load),
    )?;
    Ok(outcome)
}

/// One workload's end-to-end result as run files carry it.
struct Record {
    workload: String,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

/// Writes `{"seed", "seconds", "workloads": {name: {"attempted",
/// "failed", "metrics"}}}`, the format `--compare` reads.
fn write_runs(path: &Path, cfg: &Config, records: &[Record]) -> Result<(), String> {
    let workloads = records
        .iter()
        .map(|r| {
            let metrics = r
                .metrics
                .iter()
                .map(|(n, v, u)| (n.as_str(), *v, u.as_str()));
            let entry = BTreeMap::from([
                ("attempted".to_string(), Value::Int(r.attempted)),
                ("failed".to_string(), Value::Int(r.failed)),
                ("metrics".to_string(), metrics_object(metrics)),
            ]);
            (r.workload.clone(), Value::Object(entry))
        })
        .collect();
    let doc = BTreeMap::from([
        ("seed".to_string(), Value::Int(cfg.seed)),
        ("seconds".to_string(), number(cfg.seconds)),
        ("workloads".to_string(), Value::Object(workloads)),
    ]);
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    std::fs::write(path, Value::Object(doc).to_json())
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// Reads a [`write_runs`] file back.
fn read_runs(path: &Path) -> Result<Vec<Record>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let bad = || format!("{}: not a benchmark run file", path.display());
    let workloads = doc
        .as_object()
        .and_then(|d| d.get("workloads"))
        .and_then(Value::as_object)
        .ok_or_else(bad)?;
    let mut out = Vec::new();
    for (name, w) in workloads {
        let w = w.as_object().ok_or_else(bad)?;
        let count = |k: &str| w.get(k).and_then(Value::as_int).ok_or_else(bad);
        let mut metrics = Vec::new();
        for (m, entry) in w
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(bad)?
        {
            let entry = entry.as_object().ok_or_else(bad)?;
            let value = entry.get("value").and_then(Value::as_f64).ok_or_else(bad)?;
            let unit = match entry.get("unit") {
                Some(Value::Str(u)) => u.clone(),
                _ => return Err(bad()),
            };
            metrics.push((m.clone(), value, unit));
        }
        out.push(Record {
            workload: name.clone(),
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        });
    }
    Ok(out)
}

/// Every workload, each in a child process of its own (so peak RSS is
/// per workload); then, with `--trace DIR`, a traced child per workload.
fn all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let scratch = harness::ScratchDir::new("all")?;
    let child = |name: &str, extra: &[&std::ffi::OsStr]| {
        std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(extra)
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn {name}: {e}"))
    };
    let mut ok = true;
    let mut records = Vec::new();
    for (name, _, _) in WORKLOADS {
        let file = scratch.0.join(format!("{name}.json"));
        let out = child(name, &["--json".as_ref(), file.as_os_str()])?;
        ok &= out.status.success();
        let Ok(runs) = read_runs(&file) else {
            eprintln!("benchmark: {name} exited with {} and no result", out.status);
            continue;
        };
        for r in runs {
            println!(
                "{}/correct {} ({} of {} ops failed)",
                r.workload,
                r.failed == 0,
                r.failed,
                r.attempted
            );
            for (m, value, unit) in &r.metrics {
                println!("{}/{m} {value} {unit}", r.workload);
            }
            records.push(r);
        }
    }
    if let Some(path) = &args.json {
        let cfg = Config {
            seed: args.seed,
            seconds: args.seconds,
        };
        write_runs(path, &cfg, &records)?;
    }
    if let Some(dir) = &args.trace_dir {
        let mut merged = Vec::new();
        for (name, _, _) in WORKLOADS {
            let out = child(name, &["--trace".as_ref(), dir.as_os_str()])?;
            println!("traced {name}/correct {}", out.status.success());
            ok &= out.status.success();
            let path = dir.join(format!("{name}.layers.json"));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            merged.push(format!("\"{name}\":{}", text.trim()));
        }
        let path = dir.join("layers.json");
        std::fs::write(&path, format!("{{{}}}", merged.join(",")))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!(
            "wrote {} and the per-workload traces beside it",
            path.display()
        );
    }
    Ok(ok)
}

/// `--compare BASE_DIR NEW_DIR`: every (end-to-end metric, workload) of
/// two sets of run files, judged by [`stats::compare`] with the metric's
/// bound from BENCHMARK.json. Files pair up in name order, so name
/// alternating runs alike on both sides. Returns false on a regression.
fn compare(base: &Path, new: &Path, benchmark: &Path) -> Result<bool, String> {
    let spec = std::fs::read_to_string(benchmark)
        .map_err(|e| format!("read {}: {e}", benchmark.display()))?;
    let spec = json::parse(&spec).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let defs = spec
        .as_object()
        .and_then(|s| s.get("end_to_end"))
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let collect = |dir: &Path| -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
        let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| format!("read {}: {e}", dir.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
        for f in files {
            for r in read_runs(&f)? {
                for (m, v, _) in r.metrics {
                    values.entry((r.workload.clone(), m)).or_default().push(v);
                }
            }
        }
        Ok(values)
    };
    let (base_values, new_values) = (collect(base)?, collect(new)?);
    let mut ok = true;
    println!(
        "{:<16} {:<12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "base p50", "new p50", "change", "wins"
    );
    for ((w, m), b) in &base_values {
        let Some(n) = new_values.get(&(w.clone(), m.clone())) else {
            continue;
        };
        let Some(def) = defs
            .iter()
            .filter_map(Value::as_object)
            .find(|d| d.get("name") == Some(&Value::Str(m.clone())))
        else {
            continue;
        };
        let better = match def.get("better") {
            Some(Value::Str(s)) if s == "higher" => stats::Better::Higher,
            _ => stats::Better::Lower,
        };
        let bound = def.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
        let Some(c) = stats::compare(b, n, better, bound) else {
            continue;
        };
        ok &= c.verdict != stats::Verdict::Regressed;
        println!(
            "{w:<16} {m:<12} {:>12.4} {:>12.4} {:>+7.1}% {:>3}/{:<2}  {}  (q1..q3 base {:.4}..{:.4}, new {:.4}..{:.4})",
            c.base_median,
            c.new_median,
            100.0 * (c.new_median / c.base_median - 1.0),
            c.wins,
            c.pairs,
            c.verdict.label(),
            c.base_quartiles[0],
            c.base_quartiles[2],
            c.new_quartiles[0],
            c.new_quartiles[2],
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(spec: &Value, list: &str) -> Vec<String> {
        spec.as_object()
            .and_then(|s| s.get(list))
            .and_then(Value::as_array)
            .expect("list present")
            .iter()
            .filter_map(|m| match m.as_object().and_then(|m| m.get("name")) {
                Some(Value::Str(n)) => Some(n.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
        let spec = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        assert_eq!(names(&spec, "per_layer"), PER_LAYER);
        let reported: Vec<&str> = harness::end_to_end(
            &harness::Measured {
                window: harness::Window::default(),
                setup_s: 0.0,
                peak_rss_mb: 0.0,
            },
            1,
        )
        .iter()
        .map(|m| m.name)
        .collect();
        assert_eq!(names(&spec, "end_to_end"), reported);
        assert_eq!(
            names(&spec, "workloads"),
            WORKLOADS.map(|(n, _, _)| n).to_vec()
        );
    }
}
