#!/usr/bin/env bash
# The full pre-submit gate: formatting, lints, rustdoc links, release
# build, tests (default and obs-off features), and the metrics-overhead
# guard.
# Run from anywhere inside the repository.
#
# Also: `scripts/check.sh --bench-diff BASE.json NEW.json` compares two
# `tmk bench --json` snapshots and exits non-zero if any case regressed
# by more than 15% — the perf-trajectory harness for stacked PRs.
#
# Also: `scripts/check.sh --serve-smoke` runs only the `tmk serve`
# end-to-end smoke test (daemon on an ephemeral port, client query,
# streamed .tmsb session, HTTP + Prometheus metrics scrapes, slow-query
# event log, `tmk top` dashboard frame, graceful shutdown).
#
# Also: `scripts/check.sh --monitor-smoke` runs only the incremental
# smoke test (8-stream `tmk monitor` bit-compared to solo runs,
# mid-stream checkpoint/resume, window-slide ≥5x speedup floor).
set -euo pipefail
cd "$(dirname "$0")/.."

# End-to-end smoke of the service layer against a release binary.
serve_smoke() {
  echo "==> tmk serve smoke test (ephemeral port, client + stream + metrics + log + top + shutdown)"
  local dir tmk addr pid got want
  tmk=target/release/tmk
  dir=$(mktemp -d)
  pid=""
  # Clean up the scratch dir and any still-running daemon on every exit
  # path, including mid-test assertion failures.
  trap 'kill "$pid" 2>/dev/null || true; rm -rf "$dir"' RETURN
  "$tmk" export-example "$dir" >/dev/null
  "$tmk" convert "$dir/hospital.tms" "$dir/hospital.tmsb" >/dev/null

  # --slow-ms 0 flags every request slow, so the event log must end up
  # with slow_query records carrying the plan explain and phase timings.
  "$tmk" serve 127.0.0.1:0 --slow-ms 0 --log "$dir/events.jsonl" \
    >"$dir/serve.log" 2>&1 &
  pid=$!
  addr=""
  for _ in $(seq 1 100); do
    addr=$(awk '/^tmk serve listening on /{print $5; exit}' "$dir/serve.log" 2>/dev/null || true)
    [ -n "$addr" ] && break
    sleep 0.1
  done
  if [ -z "$addr" ]; then
    echo "serve smoke: server never printed its address" >&2
    cat "$dir/serve.log" >&2 || true
    return 1
  fi
  echo "    serving on $addr"

  # A self-contained query: the paper's top answer with its confidence.
  got=$("$tmk" client "$addr" top "$dir/room_tracker.tmt" "$dir/hospital.tms" --k 1)
  case "$got" in
    *"confidence = 0.403800"*) ;;
    *) echo "serve smoke: top query failed: $got" >&2; return 1 ;;
  esac
  # The served top-3 matches the in-process ranking line for line:
  # answers, order, E_max and confidence.
  got=$("$tmk" client "$addr" top "$dir/room_tracker.tmt" "$dir/hospital.tms" --k 3)
  want=$("$tmk" top "$dir/hospital.tms" "$dir/room_tracker.tmt" --k 3)
  if [ "$got" != "$want" ] || [ "$(printf '%s\n' "$got" | wc -l)" -ne 3 ]; then
    echo "serve smoke: served top-3 differs from local:" >&2
    printf '%s\n--- local:\n%s\n' "$got" "$want" >&2
    return 1
  fi
  # The same confidence over a chunked stream session, bit-identical to
  # the in-process answer.
  got=$("$tmk" client "$addr" stream "$dir/room_tracker.tmt" "$dir/hospital.tmsb" 1 2 --chunk 16)
  want=$("$tmk" confidence "$dir/hospital.tms" "$dir/room_tracker.tmt" 1 2)
  if [ "$got" != "$want" ]; then
    echo "serve smoke: streamed confidence $got != local $want" >&2
    return 1
  fi
  # Metrics over tmkp and over plain HTTP on the same port.
  got=$("$tmk" client "$addr" metrics)
  case "$got" in
    *"serve.queries"*) ;;
    *) echo "serve smoke: tmkp metrics scrape failed" >&2; return 1 ;;
  esac
  exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
  printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
  got=$(cat <&3)
  exec 3>&-
  case "$got" in
    *"serve.connections"*) ;;
    *) echo "serve smoke: HTTP metrics scrape failed" >&2; return 1 ;;
  esac
  # The Prometheus exposition endpoint on the same port.
  exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
  printf 'GET /metrics.prom HTTP/1.0\r\n\r\n' >&3
  got=$(cat <&3)
  exec 3>&-
  case "$got" in
    *"# TYPE serve_connections counter"*) ;;
    *) echo "serve smoke: /metrics.prom scrape failed" >&2; return 1 ;;
  esac
  # One tmk top frame over /metrics.json: headers and footer render.
  got=$("$tmk" top "$addr" --interval 50 --count 1)
  case "$got" in
    *"tmk top — $addr"*"plan cache hit"*) ;;
    *) echo "serve smoke: tmk top frame failed: $got" >&2; return 1 ;;
  esac

  # Graceful shutdown: the client gets an ack and the daemon exits.
  got=$("$tmk" client "$addr" shutdown)
  case "$got" in
    *acknowledged*) ;;
    *) echo "serve smoke: shutdown not acknowledged" >&2; return 1 ;;
  esac
  for _ in $(seq 1 100); do
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
  done
  if kill -0 "$pid" 2>/dev/null; then
    echo "serve smoke: server did not exit after shutdown" >&2
    kill "$pid" 2>/dev/null || true
    return 1
  fi
  # The structured event log: with --slow-ms 0 every query produces a
  # slow_query record with its plan explain and phase breakdown.
  if ! grep -q '"kind":"request_start"' "$dir/events.jsonl"; then
    echo "serve smoke: event log has no request_start records" >&2
    cat "$dir/events.jsonl" >&2 || true
    return 1
  fi
  if ! grep -q '"kind":"slow_query".*plan:' "$dir/events.jsonl"; then
    echo "serve smoke: event log has no slow_query record with a plan explain" >&2
    cat "$dir/events.jsonl" >&2 || true
    return 1
  fi
  echo "    serve smoke passed"
}

# End-to-end smoke of the incremental layer: a multiplexed monitor over
# many streams bit-compared to solo runs, a mid-stream checkpoint
# resumed bit-identically, and the window-slide vs recompute speedup
# floor from the bench suite.
monitor_smoke() {
  echo "==> tmk monitor smoke (8 streams, checkpoint mid-stream, resume, bit-compare)"
  local dir tmk solo want got full resumed i
  tmk=target/release/tmk
  dir=$(mktemp -d)
  trap 'rm -rf "$dir"' RETURN
  "$tmk" export-example "$dir" >/dev/null
  # 8 streams of the example sequence, mixed on-disk formats.
  local streams=()
  for i in 1 2 3 4; do
    cp "$dir/hospital.tms" "$dir/s$i.tms"
    streams+=("$dir/s$i.tms")
  done
  for i in 5 6 7 8; do
    "$tmk" convert "$dir/hospital.tms" "$dir/s$i.tmsb" >/dev/null
    streams+=("$dir/s$i.tmsb")
  done

  # The multiplexed per-stream series (3 workers) must be byte-identical
  # to running each stream alone.
  solo=$("$tmk" stream "$dir/room_tracker.tmt" "$dir/hospital.tms")
  want=""
  for i in "${streams[@]}"; do
    want+="== $i"$'\n'"$solo"$'\n'
  done
  got=$("$tmk" monitor "$dir/room_tracker.tmt" "${streams[@]}" --series --threads 3)
  if [ "$got" != "${want%$'\n'}" ]; then
    echo "monitor smoke: multiplexed series differs from solo streams" >&2
    diff <(printf '%s' "${want%$'\n'}") <(printf '%s' "$got") >&2 || true
    return 1
  fi

  # Checkpoint one stream mid-flight, resume, and bit-compare the tail
  # against the uninterrupted run.
  full=$solo
  "$tmk" stream "$dir/room_tracker.tmt" "$dir/s1.tms" \
    --checkpoint-at 2 --checkpoint-out "$dir/mid.ckpt" >/dev/null
  resumed=$("$tmk" stream "$dir/room_tracker.tmt" "$dir/s1.tms" --resume "$dir/mid.ckpt")
  if [ "$(echo "$resumed" | tail -n 2)" != "$(echo "$full" | tail -n 2)" ]; then
    echo "monitor smoke: resumed stream tail differs from uninterrupted run" >&2
    printf 'full:\n%s\nresumed:\n%s\n' "$full" "$resumed" >&2
    return 1
  fi

  # The O(k²) window slide must hold its ≥5× per-tick floor over the
  # from-scratch recompute. Each case declares the ticks one execution
  # times as `units` (the recompute samples 1 tick in 128), so per-tick
  # cost is min_ns / units.
  "$tmk" bench --runs 2 --iters 3 --json "$dir/bench.json" >/dev/null
  jq -e '
    (.cases["window_recompute/2e15"] | .min_ns / .units) as $rec
    | (.cases["window_slide/2e15"] | .min_ns / .units) as $slide
    | ($rec / $slide) as $speedup
    | if $speedup >= 5 then
        "    window slide \($speedup | floor)x faster per tick than recompute"
      else
        error("window slide only \($speedup)x faster than recompute (floor: 5x)")
      end' -r "$dir/bench.json"

  echo "    monitor smoke passed"
}

if [ "${1:-}" = "--bench-diff" ]; then
  if [ $# -ne 3 ]; then
    echo "usage: scripts/check.sh --bench-diff BASE.json NEW.json" >&2
    exit 2
  fi
  cargo build -q --release --bin tmk
  exec target/release/tmk bench --diff "$2" "$3"
fi

if [ "${1:-}" = "--serve-smoke" ]; then
  cargo build -q --release --bin tmk
  serve_smoke
  exit $?
fi

if [ "${1:-}" = "--monitor-smoke" ]; then
  cargo build -q --release --bin tmk
  monitor_smoke
  exit $?
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

# Intra-doc links name items across crates; a removed or renamed item
# must not leave a dangling link behind.
echo "==> cargo doc --workspace (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo build --release"
cargo build --release

# examples/benchmark is a package of its own, outside the workspace
# members, so nothing above compiles it; a public-API change could break
# the repository benchmark unnoticed. Compile-only: running it is the
# benchmark's job.
echo "==> cargo build --release (examples/benchmark)"
cargo build --release --offline --manifest-path examples/benchmark/Cargo.toml

# The benchmark's own unit tests: its statistics, its compare rule and
# the check that BENCHMARK.json names exactly the metrics it reports.
echo "==> cargo test --release (examples/benchmark)"
cargo test --release --offline --manifest-path examples/benchmark/Cargo.toml

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# The decoders' size-claim regression tests (`*cannot_back`), run again
# with each test binary started directly under a capped address space.
# An allocation sized from a claimed length or |Σ| then aborts the gate
# even on a host whose overcommit would grant it; under plain
# `cargo test` such a reservation can pass unnoticed.
echo "==> size-claim tests under a 2 GiB address-space cap"
test_binaries() {
  cargo test -q --no-run --message-format=json "$@" |
    jq -r 'select(.reason == "compiler-artifact" and .profile.test) | .executable // empty'
}
for spec in "-p transmark-markov --lib" "-p transmark-store --lib" "-p transmark --test cli"; do
  # A spec is a list of cargo arguments, split on purpose.
  # shellcheck disable=SC2086
  bin=$(test_binaries $spec)
  out=""
  if [ ! -x "$bin" ] ||
    ! out=$(ulimit -v 2097152 && "$bin" cannot_back --test-threads=1 2>&1) ||
    [[ "$out" != *"test result: ok. "[1-9]*" passed"* ]]; then
    echo "size-claim tests failed under the cap: $spec ($bin)" >&2
    printf '%s\n' "$out" >&2
    exit 1
  fi
  echo "    $(basename "$bin"): $(grep -o 'ok\. [0-9]* passed' <<<"$out")"
done

serve_smoke
monitor_smoke

# The obs-off feature only exists on the crates that carry
# instrumentation, so it cannot be toggled workspace-wide; the root
# package forwards it through every instrumented crate.
echo "==> cargo test -q --features obs-off (root + core observability)"
cargo test -q --features obs-off
cargo test -q -p transmark-core --features obs-off

echo "==> metrics overhead guard (examples/obs_overhead)"
# Build both configurations first (the second build overwrites the
# example path, so the instrumented binary is copied aside), then run
# them interleaved: back-to-back build-then-run measurements are
# contaminated by the build's own machine load, which dwarfs the ~2%
# effect this guard polices.
#
# The example prints two figures — `ns_per_iter` (counters + spans) and
# `ns_per_iter_recorded` (the same workload inside an active profiler
# Recorder) — and both must stay within the 5% budget relative to the
# obs-off baseline.
#
# Each round runs the two binaries back to back (alternating which goes
# first) and takes their ratio; the guard reads the median over all
# rounds. On a shared 2-vCPU machine the speed of a whole process can
# shift by ~1.7x between runs, so a ratio of two separately taken minima
# swings whenever only one side catches a fast spell. Adjacent runs
# nearly always share one, and the median drops the rounds that do not.
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
cargo build -q --release --example obs_overhead
cp target/release/examples/obs_overhead "$tmpdir/obs_on"
cargo build -q --release --example obs_overhead --features obs-off
cp target/release/examples/obs_overhead "$tmpdir/obs_off"
rounds=51
for i in $(seq 1 "$rounds"); do
  if [ $((i % 2)) -eq 0 ]; then
    off=$("$tmpdir/obs_off")
    on=$("$tmpdir/obs_on")
  else
    on=$("$tmpdir/obs_on")
    off=$("$tmpdir/obs_off")
  fi
  # One line per round: instrumented, recorded, obs-off (ns/iter).
  echo "$on" | awk '/^ns_per_iter /{a=$2} /^ns_per_iter_recorded /{b=$2} END{printf "%s %s ", a, b}'
  echo "$off" | awk '/^ns_per_iter /{print $2}'
done >"$tmpdir/rounds"
median() { sort -g | awk '{v[NR] = $1} END {print v[int((NR + 1) / 2)]}'; }
# The per-round ratios' quartiles (nearest rank) and their distance, the
# interquartile range, printed next to each median: a median near the
# budget reads as noise when the budget lies inside its own quartiles.
quartiles() {
  sort -g | awk '{v[NR] = $1} END {
    q1 = v[int((NR + 3) / 4)]; q3 = v[int((3 * NR + 3) / 4)]
    printf "quartiles %.3f..%.3f, IQR %.3f", q1, q3, q3 - q1
  }'
}
ratio=$(awk '{print $1 / $3}' "$tmpdir/rounds" | median)
rratio=$(awk '{print $2 / $3}' "$tmpdir/rounds" | median)
spread=$(awk '{print $1 / $3}' "$tmpdir/rounds" | quartiles)
rspread=$(awk '{print $2 / $3}' "$tmpdir/rounds" | quartiles)
awk -v ratio="$ratio" -v rratio="$rratio" -v rounds="$rounds" \
  -v spread="$spread" -v rspread="$rspread" 'BEGIN {
  printf "    ratio %.3f (%s)\n", ratio, spread
  printf "    recorded ratio %.3f (%s)\n", rratio, rspread
  printf "    medians of %d interleaved rounds; budget 1.05\n", rounds
  if (ratio > 1.05) { print "metrics overhead exceeds the ~5% budget"; exit 1 }
  if (rratio > 1.05) { print "profiler recording overhead exceeds the ~5% budget"; exit 1 }
}'

echo "All checks passed."
