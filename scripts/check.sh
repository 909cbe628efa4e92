#!/usr/bin/env bash
# Repository health check: formatting, lints, the tier-1 test suite, and a
# static-analysis pass over the shipped kernels. Run from anywhere; exits
# nonzero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "== shelfsim lint kernels/*.s (deny warnings)"
cargo run --release -p shelfsim-cli -- lint --deny-warnings kernels/*.s

echo "== analyze smoke: static IPC bounds on the shipped kernels"
out="$(cargo run --release -q -p shelfsim-cli -- analyze --bounds --design base64 kernels/*.s)"
echo "$out" | grep -q "static IPC bounds" \
  || { echo "FAIL: analyze --bounds should print a bound table"; echo "$out"; exit 1; }

echo "== sanitizer smoke: freelist audits under --features sanitize"
cargo test -q -p shelfsim-uarch --features sanitize

echo "== cache exactness: the set-MRU filter against the reference LRU model"
PROPTEST_CASES=2000 cargo test -q -p shelfsim-mem --test proptest_cache

echo "== fault smoke: a fault-injected sweep must quarantine and resume"
journal="$(mktemp -d)/faults"
faulted() {
  cargo run --release -q -p shelfsim-cli -- sweep \
    --designs base64,shelf-opt --mix gcc,mcf --mix hmmer,lbm \
    --warmup 500 --measure 3000 --watchdog 5000 --workers "$1" \
    --fault-panics 1 --fault-persistent-panics 1 --fault-seed 3 \
    --journal-dir "$journal"
}
out="$(faulted 2)"
echo "$out" | head -1
# The persistent injected panic must be quarantined, not fatal, and the
# transient one retried: partial results plus a taxonomy.
echo "$out" | grep -q "3 completed, 1 quarantined" \
  || { echo "FAIL: expected 3 completed, 1 quarantined"; echo "$out"; exit 1; }
echo "$out" | grep -q "taxonomy: .*panic=" \
  || { echo "FAIL: taxonomy should count the injected panics"; echo "$out"; exit 1; }
# Re-invoking the sweep must resume everything from the journal
# without re-running a single simulation — on 1 worker, so resume is
# also independent of the shard layout the first run left.
out2="$(faulted 1)"
echo "$out2" | head -1
echo "$out2" | grep -q "4 resumed from journal" \
  || { echo "FAIL: second invocation should resume all 4 runs"; echo "$out2"; exit 1; }
rm -rf "$journal"

echo "== preflight smoke: starved shelves must be rejected before simulating"
# Two starved runs on two workers are both rejected and journaled, and the
# rejections resume on one worker.
preflight_dir="$(mktemp -d)/preflight"
starved() {
  cargo run --release -q -p shelfsim-cli -- sweep \
    --designs shelf-inorder --mix gcc,mcf --mix hmmer,gcc --override shelf=2 \
    --warmup 500 --measure 3000 --workers "$1" --journal-dir "$preflight_dir" "${@:2}"
}
# The dry run pre-flights too: a rejected run never warms, so it plans none.
out="$(starved 2 --dry-run)"
echo "$out" | grep -q "^0 warm-ups for 2 pending runs" \
  || { echo "FAIL: the dry run must plan no warm-up for rejected runs"; echo "$out"; exit 1; }
out="$(starved 2)"
echo "$out" | head -1
echo "$out" | grep -q "2 rejected" \
  || { echo "FAIL: expected both starved runs to be rejected"; echo "$out"; exit 1; }
echo "$out" | grep -q "analysis-rejected" \
  || { echo "FAIL: taxonomy should carry analysis-rejected"; echo "$out"; exit 1; }
out="$(starved 1)"
echo "$out" | head -1
echo "$out" | grep -q "2 resumed from journal" \
  || { echo "FAIL: the rejections should resume from the journal"; echo "$out"; exit 1; }
rm -rf "$preflight_dir"

echo "== validate smoke: lockstep harness on a kernel + a generated program"
out="$(cargo run --release -q -p shelfsim-cli -- validate \
  --designs base64,shelf-opt --kernels daxpy --generated 1 --seed 9 \
  --commits 500 --warmup 200 --sweep)"
echo "$out" | head -1
echo "$out" | grep -q " 0 diverged, 0 invariant-violations" \
  || { echo "FAIL: validate smoke must be clean"; echo "$out"; exit 1; }

echo "== skip-equivalence smoke: cycle skipping must not change validation"
# The same lockstep sweep with the skip engine disabled: both runs must be
# clean, proving the event-driven fast-forward is an execution strategy and
# not a model change (the full cross-product lives in the skip_matrix test).
out="$(cargo run --release -q -p shelfsim-cli -- validate \
  --designs base64,shelf-opt --kernels daxpy --generated 1 --seed 9 \
  --commits 500 --warmup 200 --sweep --no-skip)"
echo "$out" | head -1
echo "$out" | grep -q " 0 diverged, 0 invariant-violations" \
  || { echo "FAIL: validate --no-skip smoke must be clean"; echo "$out"; exit 1; }

echo "== partial-skip smoke: skipping bit-identical on asymmetric mixes"
# The asymmetric leg of the skip matrix: memory-blocked threads next to
# compute threads, also with two data MSHRs (shared-input pressure). A
# window opens only after a tick in which no thread progressed and every
# thread passed the stillness check, and any window tick that progresses
# abandons the window, so the leg runs again under the per-cycle pipeline
# audits.
cargo test -q -p shelfsim-validate --test skip_matrix skip_matrix_asymmetric
cargo test -q -p shelfsim-validate --features shelfsim-core/sanitize --test skip_matrix skip_matrix_asymmetric
cargo test -q -p shelfsim-core --test cycle_skipping partial_skip

echo "== skip sanitizer smoke: cycle_skipping under per-cycle pipeline audits"
cargo test -q -p shelfsim-core --features sanitize --test cycle_skipping

echo "== skip coverage smoke: no window tick contradicts a stillness judgement"
# Each of the three mixes prints park_aborts=N: a nonzero N means a window
# was abandoned because a thread judged still made progress.
out="$(cargo run --release -q -p shelfsim-core --example park_coverage)"
echo "$out"
[ "$(echo "$out" | grep -c ' park_aborts=0$')" -eq 3 ] \
  || { echo "FAIL: park_coverage must report park_aborts=0 on all three mixes"; exit 1; }
# The skipped-cycle counts are deterministic: a stillness check that grows
# stricter loses coverage without failing any equivalence test.
for skipped in 16 42506 190158; do
  echo "$out" | grep -q ": skipped=$skipped " \
    || { echo "FAIL: park_coverage must skip exactly $skipped cycles on one mix"; exit 1; }
done

echo "== perfbench smoke: the benchmark builds, passes its tests and checks every workload's goldens"
# perfbench is its own workspace, so neither tier-1 nor clippy above
# compiles it; a core API change that breaks it would otherwise go unseen.
cargo test --release --manifest-path perfbench/Cargo.toml
# One pass of each mode on the 220-run sweep. No speed threshold: hosts
# differ. The last line of stdout is the JSON result.
perfbench() {
  cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload sweep-short --seed 7 --seconds 0 --trace "$1" | tail -1
}
perfbench 0 | python3 -c '
import json, sys
doc = json.loads(sys.stdin.read())
assert doc["correct"] is True and doc["failed"] == 0, doc
m = doc["metrics"]
values = {n: m[n]["value"] for n in ("runs_per_s", "setup_s", "peak_rss_mb")}
for name, value in values.items():
    assert value > 0, f"{name} must be positive, got {value}"
print("perfbench sweep-short ok:", values)
'
# Both engine workloads, one batch each: every simulation's fingerprint
# must match its golden.
for workload in smt4-compute smt2-membound; do
  cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 7 --seconds 0 --trace 0 | tail -1 \
    | WORKLOAD="$workload" python3 -c '
import json, os, sys
doc = json.loads(sys.stdin.read())
assert doc["correct"] is True and doc["failed"] == 0, doc
workload, runs = os.environ["WORKLOAD"], doc["attempted"]
print(f"perfbench {workload} ok: {runs} simulations match their goldens")
'
done
perfbench 1 | python3 -c '
import json, sys
doc = json.loads(sys.stdin.read())
assert doc["correct"] is True and doc["failed"] == 0, doc
m = doc["metrics"]
hit = m["campaign.cache.replay_hit_rate"]["value"]
assert hit == 1, f"the replay must be 100% cache hits, got {hit}"
speedup = m["campaign.pool.speedup_2w"]["value"]
assert speedup > 0, f"campaign.pool.speedup_2w must be positive, got {speedup}"
print(f"perfbench sweep-short trace ok: replay hits {hit}, 2-worker speedup {speedup:.2f}")
'

echo "== chaos smoke: an armed commit-path mutation must be detected (exit 3)"
set +e
out="$(cargo run --release -q -p shelfsim-cli --features chaos -- validate \
  --designs shelf-opt --kernels branchy --commits 1000 --warmup 200 \
  --chaos skip-writeback:100 2>&1)"
status=$?
set -e
[ "$status" -eq 3 ] \
  || { echo "FAIL: expected divergence exit code 3, got $status"; echo "$out"; exit 1; }
echo "$out" | grep -q "1 diverged" \
  || { echo "FAIL: report should localize the mutation"; echo "$out"; exit 1; }

echo "== golden determinism suite (bit-identical counters, journal bytes)"
cargo test -q -p shelfsim --test golden_determinism

echo "== sweep smoke: sharded journals, resume, dedup, byte-deterministic merge"
sweep_dir="$(mktemp -d)/shards"
sweep() {
  cargo run --release -q -p shelfsim-cli -- sweep \
    --designs base64,shelf-opt --thread-counts 2 --mixes 1 \
    --warmup 200 --measure 1500 --workers "$1" --journal-dir "$sweep_dir" "${@:2}"
}
# Dry run first: the full matrix is a cache miss, nothing simulates.
out="$(sweep 2 --dry-run)"
echo "$out" | head -2
echo "$out" | grep -q "dry run: 0 cycles simulated" \
  || { echo "FAIL: --dry-run must not simulate"; echo "$out"; exit 1; }
# Both designs of a mix share one warm-up: 3 mixes (one 2-thread mix and
# its two single-thread references) for 6 runs.
echo "$out" | grep -q "3 warm-ups for 6 pending runs" \
  || { echo "FAIL: dry run must count one warm-up per mix"; echo "$out"; exit 1; }
# Cold sweeps on 1 and 2 workers (different warm-up sharing) must
# journal identical entries.
cold_a="$(mktemp -d)/shards"
cold_b="$(mktemp -d)/shards"
out="$(sweep_dir="$cold_a" sweep 1)"
# One worker builds each of the 3 programs once and warms each mix once,
# whatever order its warm groups run in.
echo "$out" | grep -q "scratch: programs 3 built, 9 reused; warm-ups 3 built, 3 reused" \
  || { echo "FAIL: 1-worker cold sweep must build each program once"; echo "$out"; exit 1; }
# The schedule warms each unit once, whichever worker claims it: 2 workers
# warm as often as 1, and exactly as often as the dry run said.
planned="$(sweep_dir="$cold_b" sweep 2 --dry-run | sed -n 's/^\([0-9]*\) warm-ups for .*/\1/p')"
out="$(sweep_dir="$cold_b" sweep 2)"
echo "$out" | grep -q "warm-ups 3 built, 3 reused" \
  || { echo "FAIL: 2-worker cold sweep must warm each mix once"; echo "$out"; exit 1; }
built="$(echo "$out" | sed -n 's/.*warm-ups \([0-9]*\) built.*/\1/p')"
[ -n "$planned" ] && [ "$planned" = "$built" ] \
  || { echo "FAIL: dry run plans $planned warm-ups, the real run built $built"; exit 1; }
[ "$(cat "$cold_a"/shard-*.jsonl | sort)" = "$(cat "$cold_b"/shard-*.jsonl | sort)" ] \
  || { echo "FAIL: 1- and 2-worker cold sweeps must journal identical entries"; exit 1; }
rm -rf "$cold_a" "$cold_b"
# Real run with 2 workers, then an identical re-run with 3: everything
# must dedupe against the shards (zero misses, all resumed).
out="$(sweep 2)"
echo "$out" | grep -q "0 hits" \
  || { echo "FAIL: first sweep should start cold"; echo "$out"; exit 1; }
merged_a="$(cat "$sweep_dir"/shard-*.jsonl | sort)"
out="$(sweep 3 --pareto)"
echo "$out" | head -2
echo "$out" | grep -q "0 misses" \
  || { echo "FAIL: identical re-run must be 100% cache hits"; echo "$out"; exit 1; }
echo "$out" | grep -q "resumed from journal" \
  || { echo "FAIL: re-run should resume every run"; echo "$out"; exit 1; }
echo "$out" | grep -q "pareto: " \
  || { echo "FAIL: --pareto should print the frontier"; echo "$out"; exit 1; }
# The merged entry set is unchanged by the (cache-hit) re-run: same runs,
# same bytes, regardless of worker count or shard layout.
merged_b="$(cat "$sweep_dir"/shard-*.jsonl | sort)"
[ "$merged_a" = "$merged_b" ] \
  || { echo "FAIL: re-run must not change the journaled entry set"; exit 1; }
rm -rf "$sweep_dir"

echo "== override-axis smoke: a multi-valued --override is one matrix axis"
axis_dir="$(mktemp -d)/axis"
axis() {
  cargo run --release -q -p shelfsim-cli -- sweep \
    --designs shelf-opt --mix gcc,mcf --override shelf=16,32 \
    --warmup 200 --measure 1500 --workers "$1" --journal-dir "$axis_dir"
}
out="$(axis 2)"
echo "$out" | head -1
for label in "shelf-opt gcc+mcf \[shelf=16\]" "shelf-opt gcc+mcf \[shelf=32\]"; do
  echo "$out" | grep -q "\[ok\] *$label" \
    || { echo "FAIL: expected a completed run labelled $label"; echo "$out"; exit 1; }
done
out="$(axis 1)"
echo "$out" | grep -q "2 hits, 0 misses" \
  || { echo "FAIL: the override axis re-run must be 100% cache hits"; echo "$out"; exit 1; }
echo "$out" | grep -q "2 resumed from journal" \
  || { echo "FAIL: the override axis re-run should resume both runs"; echo "$out"; exit 1; }
rm -rf "$axis_dir"

echo "== figure smoke: Fig 10 and Fig 14 regenerate through the campaign"
figure() {
  SHELFSIM_MIXES=2 SHELFSIM_WARMUP=500 SHELFSIM_MEASURE=2000 \
    cargo bench -q -p shelfsim-bench --bench "$1"
}
out="$(figure fig10_shelf_performance)"
for row in "64+64 conservative" "64+64 optimistic" "Base 128"; do
  echo "$out" | grep -q "^$row .*%" \
    || { echo "FAIL: fig10 should print a $row row"; echo "$out"; exit 1; }
done
echo "$out" | grep -q "SSR safety self-check (must be 0): 0$" \
  || { echo "FAIL: fig10 SSR self-check must read 0"; echo "$out"; exit 1; }
out="$(figure fig14_fewer_threads)"
for threads in 1 2; do
  echo "$out" | grep -q "^$threads  *[-+][0-9.]*%  *[-+][0-9.]*%$" \
    || { echo "FAIL: fig14 should print a $threads-thread row"; echo "$out"; exit 1; }
done

echo "== ablations smoke: every knob row prints the shelf gain and its capture"
out="$(SHELFSIM_MIXES=1 SHELFSIM_WARMUP=500 SHELFSIM_MEASURE=2000 \
  cargo bench -q -p shelfsim-bench --bench ablations)"
# Rows follow the column header and end at the first blank line.
rows="$(echo "$out" | sed -n '/^variant /,/^$/p' | sed '1d;/^$/d')"
[ "$(echo "$rows" | wc -l)" -ge 10 ] \
  || { echo "FAIL: ablations should print a row per knob"; echo "$out"; exit 1; }
echo "$rows" | grep -q "^none (Table I) " \
  || { echo "FAIL: ablations should print the Table I reference row"; echo "$out"; exit 1; }
bad="$(echo "$rows" | grep -Ev ' [0-9]+\.[0-9]{3} +[-+][0-9.]+% +[-+][0-9.]+% +-?[0-9]+%$' || true)"
[ -z "$bad" ] \
  || { echo "FAIL: ablation rows without a shelf gain and capture:"; echo "$bad"; exit 1; }

echo "All checks passed."
