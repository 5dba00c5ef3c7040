//! Timeline exports for [`ExecutionProfile`]: Chrome `trace_event` JSON
//! and folded stacks for flamegraphs.
//!
//! ## Chrome trace schema
//!
//! [`chrome_trace`] emits the *JSON array format* that
//! `chrome://tracing` and Perfetto accept: one object per event, with
//! `ph` (phase) `"M"` for lane metadata, `"B"`/`"E"` for span
//! begin/end, `"i"` for instants (scope `"s":"t"` = thread), and `"C"`
//! for cumulative layer/byte counters and for summaries of repeated
//! instants ([`profile::summary`](crate::profile::summary): the running
//! total plus each summary's first and last tick). All events share `pid` 1; each
//! lane (recorder scope label — `"main"`, `"worker-0"`, …) gets its own
//! `tid`, named via a `thread_name` metadata event, so fleet workers
//! render as separate tracks. Timestamps are microseconds from the
//! recorder epoch with nanosecond precision kept as a fraction.
//!
//! ## Folded-stack format
//!
//! [`folded`] emits `flamegraph.pl`/inferno input: one line per unique
//! stack, `lane;outer;inner <self_ns>`, where the count is the stack's
//! *self* time (inclusive minus children) in nanoseconds so frame widths
//! sum correctly. [`parse_folded`] is the strict reader the test suite
//! uses to prove the output round-trips.

use crate::json::write_json_string;
use crate::profile::{walk_spans, EventKind, ExecutionProfile};
use std::collections::BTreeMap;
use std::fmt::Write;

/// Renders a profile as a Chrome `trace_event` JSON array.
pub fn chrome_trace(profile: &ExecutionProfile) -> String {
    let mut out = String::new();
    out.push('[');
    let mut first = true;
    let push = |out: &mut String, first: &mut bool, event: String| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push('\n');
        out.push_str(&event);
    };
    if profile.trace_id != 0 {
        // Wire-propagated trace id: name the process after it so a
        // stitched client+server capture is visibly one trace.
        push(
            &mut out,
            &mut first,
            format!(
                r#"{{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{{"name":"tmk trace {:016x}"}}}}"#,
                profile.trace_id
            ),
        );
    }
    for (tid, lane) in profile.lanes.iter().enumerate() {
        let mut meta =
            format!(r#"{{"ph":"M","pid":1,"tid":{tid},"name":"thread_name","args":{{"name":"#);
        write_json_string(&lane.label, &mut meta);
        meta.push_str("}}");
        push(&mut out, &mut first, meta);
        let mut layers: u64 = 0;
        let mut bytes: u64 = 0;
        let mut summaries: BTreeMap<&str, u64> = BTreeMap::new();
        for e in &lane.events {
            let ts = micros(e.t_ns);
            let ev = match e.kind {
                EventKind::Begin => {
                    let mut s =
                        format!(r#"{{"ph":"B","pid":1,"tid":{tid},"ts":{ts},"cat":"span","name":"#);
                    write_json_string(e.name, &mut s);
                    s.push('}');
                    s
                }
                EventKind::End => {
                    format!(r#"{{"ph":"E","pid":1,"tid":{tid},"ts":{ts}}}"#)
                }
                EventKind::Instant if e.value > 0 => {
                    // A summary: a counter lane of the running total,
                    // with the tick range this summary covers.
                    let total = summaries.entry(e.name).or_insert(0);
                    *total += e.value;
                    let mut s = format!(r#"{{"ph":"C","pid":1,"tid":{tid},"ts":{ts},"name":"#);
                    write_json_string(e.name, &mut s);
                    let _ = write!(
                        s,
                        r#","args":{{"total":{total},"first_tick":{},"last_tick":{}}}}}"#,
                        (e.tick + 1).saturating_sub(e.value),
                        e.tick
                    );
                    s
                }
                EventKind::Instant => {
                    let mut s =
                        format!(r#"{{"ph":"i","pid":1,"tid":{tid},"ts":{ts},"s":"t","name":"#);
                    write_json_string(e.name, &mut s);
                    if !e.detail.is_empty() {
                        s.push_str(r#","args":{"detail":"#);
                        write_json_string(e.detail, &mut s);
                        s.push('}');
                    }
                    s.push('}');
                    s
                }
                EventKind::Progress => {
                    layers += e.value;
                    let mut s = format!(r#"{{"ph":"C","pid":1,"tid":{tid},"ts":{ts},"name":"#);
                    write_json_string(e.name, &mut s);
                    let _ = write!(s, r#","args":{{"layers":{layers}}}}}"#);
                    s
                }
                EventKind::Bytes => {
                    bytes += e.value;
                    let mut s = format!(r#"{{"ph":"C","pid":1,"tid":{tid},"ts":{ts},"name":"#);
                    write_json_string(e.name, &mut s);
                    let _ = write!(s, r#","args":{{"bytes":{bytes}}}}}"#);
                    s
                }
            };
            push(&mut out, &mut first, ev);
        }
    }
    out.push_str("\n]\n");
    out
}

/// Nanoseconds as a microsecond literal with the sub-µs part kept as a
/// fraction (`1234567` → `"1234.567"`), so short phases stay visible.
fn micros(t_ns: u64) -> String {
    format!("{}.{:03}", t_ns / 1000, t_ns % 1000)
}

/// Renders a profile as folded stacks: `lane;outer;inner <self_ns>`
/// lines, one per unique stack, sorted for determinism.
pub fn folded(profile: &ExecutionProfile) -> String {
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    for lane in &profile.lanes {
        walk_spans(&lane.events, profile.wall_ns, |path, frame| {
            let mut key = sanitize_frame(&lane.label);
            for name in path {
                key.push(';');
                key.push_str(&sanitize_frame(name));
            }
            *stacks.entry(key).or_insert(0) += frame.self_ns;
        });
    }
    let mut out = String::new();
    for (stack, self_ns) in stacks {
        let _ = writeln!(out, "{stack} {self_ns}");
    }
    out
}

/// Frame names may not contain the folded format's separators
/// (`;` between frames, space before the count).
fn sanitize_frame(name: &str) -> String {
    name.replace([';', ' '], "_")
}

/// Parses folded-stack text back into `(frames, count)` pairs — the
/// same grammar `flamegraph.pl` and inferno consume: every non-empty
/// line is `frame(;frame)* <count>`, count a base-10 integer.
pub fn parse_folded(text: &str) -> Result<Vec<(Vec<String>, u64)>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let (stack, count) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: missing count separator", i + 1))?;
        let count: u64 = count
            .parse()
            .map_err(|_| format!("line {}: invalid count {count:?}", i + 1))?;
        if stack.is_empty() {
            return Err(format!("line {}: empty stack", i + 1));
        }
        let frames: Vec<String> = stack.split(';').map(str::to_string).collect();
        if frames.iter().any(String::is_empty) {
            return Err(format!("line {}: empty frame", i + 1));
        }
        out.push((frames, count));
    }
    Ok(out)
}

#[cfg(all(test, not(feature = "obs-off")))]
mod tests {
    use super::*;
    use crate::profile::Recorder;
    use std::sync::Arc;

    fn sample_profile() -> ExecutionProfile {
        let rec = Arc::new(Recorder::new());
        rec.scope(|| {
            let _e = crate::span::enter("trace_test_execute");
            {
                let _k = crate::span::enter("kernel");
                crate::profile::progress(16);
                crate::profile::bytes(128);
            }
            crate::profile::instant_detail("planner.cache", "miss");
        });
        rec.finish()
    }

    #[test]
    fn chrome_trace_is_valid_event_array() {
        let text = chrome_trace(&sample_profile());
        let v = crate::json::parse(&text).expect("trace parses as JSON");
        let events = v.as_array().expect("top level is an array");
        let ph = |e: &crate::json::Value| e.as_object().unwrap()["ph"].clone();
        let phases: Vec<String> = events
            .iter()
            .map(|e| match ph(e) {
                crate::json::Value::Str(s) => s,
                other => panic!("ph is not a string: {other:?}"),
            })
            .collect();
        assert!(phases.contains(&"M".to_string()));
        assert!(phases.contains(&"B".to_string()));
        assert!(phases.contains(&"E".to_string()));
        assert!(phases.contains(&"i".to_string()));
        assert!(phases.contains(&"C".to_string()));
        for e in events {
            let obj = e.as_object().unwrap();
            assert!(obj.contains_key("pid"));
            assert!(obj.contains_key("tid"));
        }
    }

    #[test]
    fn folded_round_trips_and_self_time_sums() {
        let profile = sample_profile();
        let text = folded(&profile);
        let stacks = parse_folded(&text).expect("folded output parses");
        assert!(!stacks.is_empty());
        let total: u64 = stacks.iter().map(|(_, n)| n).sum();
        // Self times partition the root's inclusive time exactly.
        assert_eq!(total, profile.phases["trace_test_execute"].total_ns);
        assert!(stacks.iter().any(|(frames, _)| frames
            == &["main", "trace_test_execute", "kernel"]
                .map(String::from)
                .to_vec()));
    }

    #[test]
    fn parse_folded_rejects_malformed_lines() {
        assert!(parse_folded("no_count").is_err());
        assert!(parse_folded("a;b notanumber").is_err());
        assert!(parse_folded("a;;b 3").is_err());
        assert!(parse_folded(" 3").is_err());
        assert!(parse_folded("a;b 3\n").unwrap().len() == 1);
    }
}
