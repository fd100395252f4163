#!/bin/sh
# CI entry point: typed-AST lint, build, tests, opam metadata lint, and
# a fast `sbgp check` smoke (all three checker passes + the mutant
# self-test on a small generated topology).  Any failing step aborts.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build @lint"
# Typed-AST lint (tools/astlint over the .cmt artifacts): the tree must
# be clean modulo tools/astlint/allowlist.txt, and the seeded fixture
# corpus must still trip every ast/* rule (false-negative guard).
dune build @lint

echo "== dune build"
dune build

echo "== dune runtest"
dune runtest

echo "== opam lint"
if command -v opam >/dev/null 2>&1; then
  opam lint sbgp.opam
else
  echo "opam not found; skipping metadata lint"
fi

echo "== sbgp check --static (smoke)"
# Same analyzer as @lint, through the CLI entry point: proves the
# installed binary can locate the .cmt artifacts and the allowlist.
dune exec bin/sbgp.exe -- check --static

echo "== astlint --json (smoke)"
# The machine-readable output must agree with the plain gate: a clean
# tree yields "clean": true and an empty findings array.
json_out=$(dune exec tools/astlint/main.exe -- --json)
echo "$json_out"
case "$json_out" in
  '{"clean": true,'*'"findings": []'*) ;;
  *) echo "astlint --json: unexpected output for a clean tree"; exit 1 ;;
esac

echo "== astlint stale-allowlist gate (smoke)"
# An allowlist entry that suppresses nothing must fail the run with an
# ast/allowlist-stale finding — exemptions cannot outlive their code.
stale_allow=$(mktemp)
cat tools/astlint/allowlist.txt > "$stale_allow"
echo "ast/poly-compare  No.Such.Symbol  -- ci stale-gate probe" >> "$stale_allow"
if dune exec tools/astlint/main.exe -- --allowlist "$stale_allow" \
    > /tmp/astlint_stale_out 2>&1; then
  echo "astlint: stale allowlist entry was not rejected"; exit 1
fi
grep -q "ast/allowlist-stale" /tmp/astlint_stale_out || {
  echo "astlint: failure was not the stale-entry finding"; exit 1; }
rm -f "$stale_allow" /tmp/astlint_stale_out

echo "== astlint stale-budget gate (smoke)"
# An allocation-budget entry whose symbol allocates nothing must fail
# the run with an ast/alloc-budget-stale finding — budget grants cannot
# outlive the allocation sites they were recorded for.
stale_budget=$(mktemp)
cat tools/astlint/alloc_budget.txt > "$stale_budget"
echo "No.Such.Symbol 3 -- ci stale-gate probe" >> "$stale_budget"
if dune exec tools/astlint/main.exe -- --budget "$stale_budget" \
    > /tmp/astlint_budget_out 2>&1; then
  echo "astlint: stale budget entry was not rejected"; exit 1
fi
grep -q "ast/alloc-budget-stale" /tmp/astlint_budget_out || {
  echo "astlint: failure was not the stale-budget finding"; exit 1; }
rm -f "$stale_budget" /tmp/astlint_budget_out

echo "== sbgp check --alloc (smoke)"
# The runtime allocation gate at toy scale: minor words per pair of the
# scalar/batched/reference kernels against the recorded budgets,
# identity-gated, plus the cold-vs-warm metric-cache probe.
dune exec bin/sbgp.exe -- check --alloc -n 150

echo "== sbgp check (smoke)"
dune exec bin/sbgp.exe -- check -n 150 --pairs 6 --det-pairs 3 --mutants \
  --incremental --inc-pairs 4

echo "== rollout bench (smoke)"
# Tiny-scale run of the incremental-vs-scratch rollout benchmark: the
# bit-identity cross-check inside the bench is the point, not the timing.
SBGP_BENCH_ONLY=rollout SBGP_BENCH_N=300 SBGP_SCALE=0.2 \
  SBGP_BENCH_LABEL=ci dune exec bench/main.exe -- --json

echo "== kernel bench (smoke)"
# Toy-scale run of the packed-vs-reference kernel benchmark: the
# Check.Kernel bit-identity gate inside it is the point, not the timing.
SBGP_BENCH_ONLY=kernel SBGP_BENCH_N=250 SBGP_BENCH_KERNEL_PAIRS=10 \
  SBGP_BENCH_KERNEL_REPS=1 dune exec bench/main.exe

echo "== batch bench (smoke)"
# Toy-scale run of the destination-major batched kernel benchmark: the
# analyze_batch lane-decode identity gate inside it is the point.
SBGP_BENCH_ONLY=batch SBGP_BENCH_N=250 SBGP_BENCH_BATCH_DSTS=2 \
  SBGP_BENCH_BATCH_REPS=1 dune exec bench/main.exe

echo "== sbgp check --kernel partition sub-pass (smoke)"
# Batched partition counts (every model, 1/7/63 lanes, with and without
# a source filter) against the per-pair oracle on a toy graph; the
# partition-unblocked-attacker mutant in the check smoke above proves
# the sub-pass catches a dropped attacker block.
dune exec bin/sbgp.exe -- check --kernel -n 150 --pairs 4

echo "== sbgp check --optimize (smoke)"
# The Max-k optimizer differential gate on its own: CELF must replay the
# naive greedy's pick sequence bit-for-bit on the set-cover gadget and
# seeded random instances.
dune exec bin/sbgp.exe -- check --optimize -n 150

echo "== optimize bench (smoke)"
# Toy-scale run of the CELF-vs-naive-greedy optimizer benchmark: the
# Check.Optimize identity gate inside it is the point, not the timing.
SBGP_BENCH_ONLY=optimize SBGP_BENCH_N=250 SBGP_BENCH_OPT_CANDS=8 \
  SBGP_BENCH_OPT_K=3 dune exec bench/main.exe

echo "== snapshot round trip + sbgp check --kernel (smoke)"
# Emit a toy binary snapshot alongside the text graph, then drive the
# kernel identity pass from the reloaded snapshot: proves the CLI sniffs
# the snapshot magic and the mmap-loaded CSR is solve-identical to a
# freshly generated graph's.
snap_dir=$(mktemp -d)
dune exec bin/sbgp.exe -- gen -n 200 -o "$snap_dir/toy.txt" \
  --snapshot "$snap_dir/toy.snap"
dune exec bin/sbgp.exe -- check --kernel --graph "$snap_dir/toy.snap" --pairs 4
dune exec bin/sbgp.exe -- check --topology --graph "$snap_dir/toy.snap" \
  --inc-pairs 4
rm -rf "$snap_dir"

echo "== topology bench (smoke)"
# Toy-scale run of the snapshot-load + delta-replay benchmark: the CSR
# bit-identity gate and the replay-vs-scratch identity gate inside it
# are the point, not the timing.
SBGP_BENCH_ONLY=topology SBGP_BENCH_N=300 SBGP_BENCH_TOPO_STEPS=4 \
  dune exec bench/main.exe

echo "ci: all green"
