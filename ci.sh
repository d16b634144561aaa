#!/usr/bin/env bash
# Hermetic CI for the workspace: everything runs --offline against an
# empty registry. If any step here needs the network, that is the bug.
set -euo pipefail
cd "$(dirname "$0")"

echo "== guard: no registry dependencies"
# Every [dependencies]/[dev-dependencies] entry in every crate manifest
# must resolve inside the workspace: `foo.workspace = true` or an
# explicit `path = ...`. A version requirement or git URL means someone
# reintroduced an external crate — fail loudly before cargo even runs.
bad=0
for m in Cargo.toml crates/*/Cargo.toml; do
  deps=$(awk '/^\[(dev-|build-)?dependencies/{on=1; next} /^\[/{on=0} on' "$m" \
    | grep -vE '^\s*(#|$)' \
    | grep -vE 'workspace\s*=\s*true|path\s*=' || true)
  if [ -n "$deps" ]; then
    echo "non-path dependency in $m:" >&2
    echo "$deps" >&2
    bad=1
  fi
done
# The workspace dependency table itself must also be path-only.
wsdeps=$(awk '/^\[workspace.dependencies\]/{on=1; next} /^\[/{on=0} on' Cargo.toml \
  | grep -vE '^\s*(#|$)' \
  | grep -vE 'path\s*=' || true)
if [ -n "$wsdeps" ]; then
  echo "non-path entry in [workspace.dependencies]:" >&2
  echo "$wsdeps" >&2
  bad=1
fi
[ "$bad" -eq 0 ] || exit 1
echo "   ok: all dependencies are path deps"

echo "== guard: no unused in-repo dependencies"
# Every sns-* entry in a crate's [dependencies]/[dev-dependencies] must be
# named as sns_* somewhere in that crate's src/tests/benches/examples. An
# edge no source file uses hides the real layering and builds for nothing.
for m in Cargo.toml crates/*/Cargo.toml; do
  dir=$(dirname "$m")
  srcs=$(for d in src tests benches examples; do if [ -d "$dir/$d" ]; then echo "$dir/$d"; fi; done)
  for dep in $(awk '/^\[(dev-|build-)?dependencies/{on=1; next} /^\[/{on=0} on' "$m" \
      | grep -oE '^\s*sns-[a-z0-9-]+' || true); do
    if [ -z "$srcs" ] || ! grep -rqw --include='*.rs' "$(echo "$dep" | tr - _)" $srcs; then
      echo "unused dependency in $m: $dep" >&2
      bad=1
    fi
  done
done
[ "$bad" -eq 0 ] || exit 1
echo "   ok: every sns-* dependency is named in its crate"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (offline, warnings are errors)"
cargo clippy --offline --workspace --all-targets -- -D warnings
# The sharded dispatch plane, the exec layer and every crate carrying
# an async service body get a second, explicit pass so a future
# narrowing of the workspace lint scope can't silently drop them.
cargo clippy --offline -p sns-core -p sns-rt -p sns-transend -p sns-tacc -p sns-chaos \
  -p sns-hotbot --all-targets -- -D warnings

echo "== cargo build --release --offline"
cargo build --release --offline --workspace

echo "== cargo test -q --offline"
cargo test -q --offline --workspace

echo "== docs stage: rustdoc (warnings are errors) + doctests"
# The public API carries #![warn(missing_docs)]; promoting rustdoc
# warnings to errors here keeps every exported item documented and every
# intra-doc link resolvable. Doctests keep the examples in those docs
# compiling.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace
cargo test --doc -q --offline --workspace

echo "== alloc_budget stage: allocations per TranSend request (release)"
# perfbench runs release code, so the allocation budget is checked on
# the optimised build too (the debug run inside `cargo test` stays). A
# per-dispatch clone or buffer put back on the request path fails it;
# a run that prints no figure means the test was filtered out.
out=$(cargo test --release --offline -p sns-transend --test alloc_budget -- --nocapture 2>&1) || {
  echo "$out"
  echo "alloc_budget FAILED" >&2
  exit 1
}
measured=$(printf '%s\n' "$out" | grep '^alloc_budget:' || true)
if [ -z "$measured" ]; then
  echo "$out"
  echo "alloc_budget printed no measurement" >&2
  exit 1
fi
echo "   $measured"

echo "== wheel_footprint stage: timer-wheel bytes per pending entry (release)"
# The timer wheel's memory must follow its pending count, not simulated
# time, on the optimised build too (the debug run inside `cargo test`
# stays). Slots that keep their largest fill, or a chunk pool that never
# reuses a freed chunk, fail it; a run that prints no figure means the
# test was filtered out.
out=$(cargo test --release --offline -p sns-sim --test wheel_footprint -- --nocapture 2>&1) || {
  echo "$out"
  echo "wheel_footprint FAILED" >&2
  exit 1
}
measured=$(printf '%s\n' "$out" | grep '^wheel_footprint:' || true)
if [ -z "$measured" ]; then
  echo "$out"
  echo "wheel_footprint printed no measurement" >&2
  exit 1
fi
echo "   $measured"

echo "== bench stage: sim_throughput macro-bench (release, 1M events/run)"
# Times the engine on two 1M-event profiles (spawn churn, a million
# standing timers) and HotBot end to end (2 000 queries over 8
# partitions, printed as queries/s and events per query), and asserts
# in-process that every profile's repeated runs dispatch the same
# events. (The message ring is perfbench's sim_route.) An empty or
# missing BENCH_sim.json means the bench silently stopped measuring.
cargo run -p sns-bench --release --offline --bin sim_throughput -- BENCH_sim.json
if [ ! -s BENCH_sim.json ]; then
  echo "BENCH_sim.json missing or empty after the bench stage" >&2
  exit 1
fi
echo "== bench stage: trace_overhead (sampled-path guard against its own A/A noise)"
# Runs the TranSend request-path profile disabled / disabled-again /
# enabled / head-sampled-1-in-64 in one process, interleaved run by run
# over 10 rounds, and asserts every run dispatched a bit-identical event
# stream. It fails if the median round's sampled/base ratio exceeds
# max(2%, 1.5 x the second-largest round's |off/base - 1|): the
# sampled-out path is judged against this run's own A/A noise, not a
# fixed constant that host noise alone could trip, and one slow round
# cannot widen the band by itself.
# Appends request_path/* rows and the span-derived slo/* summary rows
# to BENCH_sim.json (replacing stale ones), so the row guard covers
# both bench binaries and the SLO pipeline.
cargo run -p sns-bench --release --offline --bin trace_overhead -- BENCH_sim.json

echo "== bench stage: sim_scale (million-user replay at two SAN fidelity levels)"
# Proves fidelity before it measures: the flow-mode replay must deliver
# the same request count as the per-datagram path on a matched window,
# with mean delay inside the (0.5, 2.0) band, and must run >= 10x faster
# (the bin asserts both in-process). Appends the two replay/*_window rows
# to BENCH_sim.json. (The full-day replay is perfbench's san_flow_day.)
cargo run -p sns-bench --release --offline --bin sim_scale -- BENCH_sim.json

rows=$(grep -c '"bench"' BENCH_sim.json || true)
if [ "$rows" -lt 14 ]; then
  echo "BENCH_sim.json carries $rows rows, expected >= 14 (3 sim_throughput + 4 trace_overhead + >= 5 slo + 2 replay)" >&2
  exit 1
fi
echo "   ok: $rows bench rows in BENCH_sim.json"

echo "== bench stage: rt_throughput macro-bench (release, threaded submit path)"
cargo run -p sns-bench --release --offline --bin rt_throughput -- BENCH_rt.json
if [ ! -s BENCH_rt.json ]; then
  echo "BENCH_rt.json missing or empty after the rt bench stage" >&2
  exit 1
fi
rows=$(grep -c '"bench"' BENCH_rt.json || true)
if [ "$rows" -lt 5 ]; then
  echo "BENCH_rt.json carries $rows rows, expected >= 5 (5 scaling)" >&2
  exit 1
fi
echo "   ok: $rows bench rows in BENCH_rt.json"

echo "== trace_diff stage: request-path latency composition gate"
# Replays a pinned-seed TranSend profile fully traced and diffs the
# normalized latency breakdown (overhead/compute/queue/service/net
# shares) against the checked-in TRACE_BASELINE.json. Virtual time
# makes the shares bit-deterministic, so any drift is a real change to
# the request path's shape. The second run proves the gate has teeth:
# a synthetic 10% dispatch-path slowdown must make it fail.
cargo run -p sns-bench --release --offline --bin trace_diff
if SNS_TRACE_DIFF_INJECT=dispatch:1.10 cargo run -p sns-bench --release --offline --bin trace_diff >/dev/null 2>&1; then
  echo "trace_diff did not fail under an injected 10% dispatch-path slowdown" >&2
  exit 1
fi
echo "   ok: gate passes clean and catches the injected slowdown"

echo "== rt_scaling stage: worker-scaling curve guard"
# rt_throughput pushes 256 jobs of 4 ms service through N workers. On
# the single-server timeline each worker starts its next job exactly
# when the last one's service ends, and the workers overlap, so the
# ideal batch time is 256 x 4 ms / N. Every scaling/workers{1,2,4,8,16}
# p50 must lie within 2 ms of it: submits serializing on a shared lock,
# or workers starting service late, push a row past the band.
for n in 1 2 4 8 16; do
  p50=$(grep "\"bench\":\"scaling/workers$n\"" BENCH_rt.json \
    | sed -E 's/.*"p50_ns":([0-9.]+).*/\1/')
  if ! awk -v n="$n" -v p="${p50:-0}" 'BEGIN {
      ideal = 256 * 4e6 / n; off = p - ideal
      printf "   scaling/workers%-2d p50 %8.2f ms, ideal %7.2f ms, %+.2f ms\n", n, p / 1e6, ideal / 1e6, off / 1e6
      exit !(p > 0 && off <= 2e6 && off >= -2e6) }'; then
    echo "rt scaling/workers$n p50 is more than 2 ms off its ideal" >&2
    exit 1
  fi
done
echo "   ok: every pool within 2 ms of 256 x 4 ms / workers"

echo "== rt_parity stage: one control plane, two drivers"
# The differential suite runs the same fault script through the sim and
# rt drivers of the shared sans-IO control plane and diffs the canonical
# decision streams; the rt chaos suite replays FaultPlans against real
# threads. Both ride the same pinned seed and roster guard as the chaos
# suites below.
chaos_suite() {
  pkg="$1"; suite="$2"; want="$3"
  out=$(SNS_TESTKIT_SEED=3259 cargo test -q --offline -p "$pkg" --test "$suite" 2>&1) || {
    echo "$out"
    echo "chaos suite $pkg::$suite FAILED" >&2
    exit 1
  }
  ran=$(printf '%s\n' "$out" | grep -oE '[0-9]+ passed' | awk '{s+=$1} END {print s+0}')
  if [ "$ran" -lt "$want" ]; then
    echo "$out"
    echo "chaos suite $pkg::$suite ran $ran tests, expected >= $want (filtered or deleted?)" >&2
    exit 1
  fi
  echo "   ok: $pkg::$suite ($ran tests)"
}
chaos_suite cluster-sns control_plane_parity 3
chaos_suite cluster-sns cluster_api 2
chaos_suite sns-chaos rt_chaos 2
chaos_suite sns-rt scaling 2
# Reply-driven exec::serve: a reply wakes the front end at once (both
# latency cases fail on a polling driver) and every accepted dispatch is
# answered with a typed result across crash and shutdown. A job served
# early is settled by its waiting front end: gauge before reply (a
# re-dispatch finds the worker idle), and shutdown leaves a held
# settlement to its waiter.
chaos_suite sns-rt serve_wake 7
# Service time is a deadline: real work runs inside it, longer work
# adds no wait, service spans end within microseconds of it, and a
# front end's nap ends at its deadline (all four fail on a worker that
# sleeps the service and then works, and a serve that blocks to a nap).
# Service starts when a job reaches a free worker: no queue wait on an
# idle worker, a backlog's starts exactly one service apart, a salvaged
# job starts only once it reaches its survivor, and shutdown answers a
# job in service with its result. A hold due before the deadline the
# cluster's waiter sleeps to wakes it (fails on a hold that never
# notifies).
chaos_suite sns-rt service_time 9
# Placement by live queue gauge: back-to-back submits through different
# shards and threads land on distinct idle workers (fails on a lottery),
# a job placed on a busy class is counted, a killed worker loses none.
chaos_suite sns-rt placement 4

echo "== chaos stage: fault-injection suites under a pinned seed"
# The chaos suites must both run and keep their full rosters: a test
# that got #[ignore]d, filtered out or deleted would otherwise slip
# through CI silently. Each suite's pass count is checked against the
# number of tests it is supposed to carry.
chaos_suite sns-chaos prop 4
chaos_suite cluster-sns failure_recovery 12
chaos_suite cluster-sns determinism 11
chaos_suite cluster-sns paper_shapes 5
chaos_suite cluster-sns trace_shapes 3
chaos_suite cluster-sns flow_shapes 5
# The heap oracle runs at 4096 cases (about 10 s in a debug build). A
# wheel `pop_batch` that, after a generic pop, drains the wheel's run at
# that instant without looking at the overflow heap fails it on 40 of
# 40 seeds at 4096 cases and on 36 of 40 at the testkit default of 64.
# A cascade that drops the last chunk of a slot spanning several chunks
# fails it on 20 of 20 seeds at either count; without the flood op it
# failed on 16 of 20 at 4096 cases and on none at 64. A due bucket that
# drops its last chunk fails it on 20 of 20, and on none of 20 at
# either count without the flood op.
SNS_TESTKIT_CASES=4096 chaos_suite sns-sim sched_equiv 3
# The LRU oracle checks hits, bytes, recency order and TTL expiry
# after every op (about 2 s at 4096 cases in a debug build). A `get`
# that returns a hit without re-indexing it, and a `get` whose expiry
# branch leaves the key in the recency index, each fail it on 20 of 20
# seeds.
SNS_TESTKIT_CASES=4096 chaos_suite sns-cache prop 4
# HotBot's placement (`partition_of`) and ranking (`rank`) are pinned by
# the search properties (collation equals one monolithic index; a down
# partition only removes results) and by the service end to end (every
# partition down still answers every query).
chaos_suite sns-search prop 4
chaos_suite sns-hotbot e2e 5

echo "== exec stage: deterministic executor + async request path"
# The executor-contract property suite (wake-order replay, timeout /
# race truth tables and nap release under engine-ordered nap delivery)
# and the whole-stack async path: the same pipeline body serving on the
# sim and rt backends. (The bodies' equivalence to the retired state
# machines is pinned by the goldens in the determinism suite.)
# Roster-guarded like the chaos suites — a filtered-out determinism
# proof is no proof.
chaos_suite sns-core exec 4
chaos_suite cluster-sns async_path 2
# The exec layer's demo runs too: all 8 pipeline queries must print an
# answer and none an error.
out=$(cargo run --release --offline --quiet --example async_pipeline 2>&1) || {
  echo "$out"
  echo "example async_pipeline FAILED" >&2
  exit 1
}
answered=$(printf '%s\n' "$out" | grep -cE '^query [0-9]+: [0-9]+ bytes' || true)
if [ "$answered" -ne 8 ] || printf '%s\n' "$out" | grep -q 'error:'; then
  echo "$out"
  echo "example async_pipeline answered $answered/8 queries or printed an error" >&2
  exit 1
fi
echo "   ok: async_pipeline answered 8/8"

echo "== cluster_ops stage: operations chaos under a pinned seed"
# Rolling upgrades under load (UpgradeNoJobLoss on both backends),
# drain/rejoin parity diffs, stable-index fault skips, repeated
# drain/rejoin plan verbs as skips, overlapping stragglers restoring the
# original NIC, and the multi-tenant flash-crowd isolation scenario —
# all deterministic under the pinned seed.
chaos_suite cluster-sns cluster_ops 10

echo "== perfbench stage: the benchmark builds and its output checks hold"
# perfbench is a package of its own (the benchmark driver builds it from
# its directory), so the workspace stages above never compile it. A
# change to RtCluster / exec::serve / the simulator that breaks its
# build, its unit tests or a workload's output checks (conservation,
# every pipeline outcome aggregated and not degraded, digests) fails
# here instead of in the driver. --quick shrinks every workload; the
# numbers it prints are not the benchmark's.
cargo test --offline --manifest-path perfbench/Cargo.toml
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --workload all --quick

echo "== size: lines of Rust (printed, not a gate)"
# The line budget in ROADMAP.md is measured here rather than typed:
# every tracked .rs file, and the share the benchmark package holds.
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  files=$(git ls-files '*.rs' | wc -l)
  total=$(git ls-files -z '*.rs' | xargs -0 cat | wc -l)
  bench=$(git ls-files -z 'perfbench/*.rs' | xargs -0 cat | wc -l)
  echo "   $total lines of Rust in $files files, $bench of them under perfbench/"
else
  echo "   skipped: not a git checkout"
fi

echo "== CI green"
