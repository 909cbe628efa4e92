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
    --warmup 500 --measure 3000 --workers "$1" --journal-dir "$preflight_dir"
}
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

echo "== partial-skip smoke: per-thread parking bit-identical on asymmetric mixes"
# The asymmetric leg of the skip matrix: memory-parked threads next to
# compute threads, where coverage comes from per-thread certificates and
# reduced ticks rather than whole-core fixed points.
cargo test -q -p shelfsim-validate --test skip_matrix skip_matrix_asymmetric
cargo test -q -p shelfsim-core --test cycle_skipping partial_skip

echo "== skip sanitizer smoke: cycle_skipping under per-cycle pipeline audits"
cargo test -q -p shelfsim-core --features sanitize --test cycle_skipping

echo "== perfbench: the benchmark package builds against the core API and passes"
# perfbench is its own workspace, so neither tier-1 nor clippy above
# compiles it; a core API change that breaks it would otherwise go unseen.
cargo test --release --manifest-path perfbench/Cargo.toml

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

echo "== bench smoke: shelfsim bench emits well-formed throughput JSON"
bench_json="$(mktemp)"
# --compare prints the report-only old-vs-new kIPS delta table against the
# committed baseline (no perf assertion: hosts differ; the table is for
# human eyes in CI logs and PR review).
out="$(cargo run --release -q -p shelfsim-cli -- bench \
  --measure 5000 --out "$bench_json" --compare BENCH_core.json)"
echo "$out" | grep -q "baseline comparison" \
  || { echo "FAIL: bench --compare should print a delta table"; echo "$out"; exit 1; }
echo "$out" | grep "aggregate kIPS:"
python3 - "$bench_json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "shelfsim-bench-v1", doc.get("schema")
assert doc["runs"], "bench must report at least one run"
assert doc["aggregate"]["kips"] > 0, "aggregate kIPS must be positive"
for r in doc["runs"]:
    assert r["kips"] > 0, f"{r['design']} reported zero kIPS"
    assert r["committed"] > 0, f"{r['design']} committed nothing"
print(f"bench smoke ok: {len(doc['runs'])} runs, "
      f"{doc['aggregate']['kips']:.0f} kIPS aggregate")
EOF
rm -f "$bench_json"

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
sweep_dir="$cold_a" sweep 1 >/dev/null
sweep_dir="$cold_b" sweep 2 >/dev/null
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

echo "== campaign bench smoke: BENCH_campaign.json is well-formed"
python3 - BENCH_campaign.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "shelfsim-campaign-bench-v1", doc.get("schema")
assert doc["runs"] >= 200, f"acceptance floor is 200 runs, got {doc['runs']}"
assert doc["host_cores"] >= 1
rows = doc["scaling"]
assert rows and rows[0]["workers"] == 1, "first row is the 1-worker baseline"
for r in rows:
    assert r["runs_per_sec"] > 0 and r["wall_s"] > 0, r
    assert abs(r["ideal"] - min(r["workers"], doc["host_cores"])) < 1e-9, r
assert doc["scaling_efficiency"] >= 0.7, \
    f"scaling efficiency {doc['scaling_efficiency']} below the 0.7 bar"
cr = doc["cached_replay"]
assert cr["hit_rate"] == 1.0 and cr["resumed"] == doc["runs"], cr
print(f"campaign bench smoke ok: {doc['runs']} runs, "
      f"efficiency {doc['scaling_efficiency']:.2f} on "
      f"{doc['host_cores']} host core(s)")
EOF

echo "All checks passed."
