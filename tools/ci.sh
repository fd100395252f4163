#!/bin/sh
# CI entry point: typed-AST lint, build, tests, opam metadata lint, and
# fast `sbgp check` smokes (every checker pass + the mutant self-test on
# small generated topologies), plus the CLI's input-error contract.  Any
# failing step aborts.
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

echo "== sbgp check --kernel partition sub-pass (smoke)"
# Batched partition counts (every model, 1/7/63 lanes; one policy per
# call, all policies in one call, and all policies over source groups)
# against the per-pair oracle on a toy graph; the partition mutants in
# the check smoke above prove the sub-pass catches a dropped attacker
# block and a shared solve under the wrong LP variant.
dune exec bin/sbgp.exe -- check --kernel -n 150 --pairs 4

echo "== partition experiments are domain-count independent (smoke)"
# The H(emptyset) lines of Figures 3-5 and 24 are assembled from per-run
# pieces of the shared partition solves; the printed outputs must not
# depend on how many domains ran them, on the base graph or the IXP one.
det_dir=$(mktemp -d)
for graph in base ixp; do
  ixp_flag=""
  if [ "$graph" = ixp ]; then ixp_flag="--ixp"; fi
  for d in 1 2; do
    dune exec bin/sbgp.exe -- run -n 400 --scale 0.3 --domains "$d" $ixp_flag \
      --out "$det_dir/$graph-d$d" partitions partitions-tier lpk > /dev/null
  done
  diff -r "$det_dir/$graph-d1" "$det_dir/$graph-d2" || {
    echo "partition experiments differ across domain counts ($graph)"; exit 1; }
done
rm -rf "$det_dir"

echo "== rollout experiments are domain-count independent (smoke)"
# The H-metric folds of the rollout family (batched words, lane
# counters, the incremental evaluator and the Max-k optimizer) run on
# the worker pool; their printed outputs must not depend on how many
# domains ran them.
det_dir=$(mktemp -d)
for d in 1 2; do
  dune exec bin/sbgp.exe -- run -n 400 --scale 0.3 --domains "$d" \
    --out "$det_dir/d$d" rollout per-destination early-adopters optimize \
    > /dev/null
done
diff -r "$det_dir/d1" "$det_dir/d2" || {
  echo "rollout experiments differ across domain counts"; exit 1; }
rm -rf "$det_dir"

echo "== phenomena experiments are domain-count independent (smoke)"
# Table 3, Figures 13 and 16, the Section 3 strategy table and the
# anecdotes fold batched destination words (normal lane plus attacker
# lanes); their printed outputs must not depend on how many domains
# the run was given.
det_dir=$(mktemp -d)
for d in 1 2; do
  dune exec bin/sbgp.exe -- run -n 400 --scale 0.3 --domains "$d" \
    --out "$det_dir/d$d" phenomena root-cause attacks cp-fate anecdotes \
    > /dev/null
done
diff -r "$det_dir/d1" "$det_dir/d2" || {
  echo "phenomena experiments differ across domain counts"; exit 1; }
rm -rf "$det_dir"

echo "== sbgp check --optimize (smoke)"
# The Max-k optimizer differential gate on its own: CELF must replay the
# naive greedy's pick sequence bit-for-bit on the set-cover gadget and
# seeded random instances.
dune exec bin/sbgp.exe -- check --optimize -n 150

echo "== snapshot round trip + sbgp check --kernel (smoke)"
# Emit a toy binary snapshot alongside the text graph, then drive the
# kernel identity pass from the reloaded snapshot: proves the CLI sniffs
# the snapshot magic and the mmap-loaded CSR is solve-identical to a
# freshly generated graph's.
snap_dir=$(mktemp -d)
dune exec bin/sbgp.exe -- gen -n 200 -o "$snap_dir/toy.txt" \
  --snapshot "$snap_dir/toy.snap"
dune exec bin/sbgp.exe -- check --kernel --graph "$snap_dir/toy.snap" --pairs 4
dune exec bin/sbgp.exe -- check --topology --graph "$snap_dir/toy.snap"
rm -rf "$snap_dir"

echo "== CLI size/scale/graph inputs fail by name (smoke)"
# A bad -n/--size or --scale must be a usage error that names the flag:
# not exit 0 on a silently clamped sample size, and not cmdliner's
# "internal error" exit 125 from an escaped Topogen exception.
cli_dir=$(mktemp -d)
expect_flag_error() {
  flag=$1
  shift
  if dune exec bin/sbgp.exe -- "$@" > "$cli_dir/out" 2>&1; then
    echo "sbgp $*: exited 0"; exit 1
  else
    code=$?
  fi
  if [ "$code" -eq 125 ]; then
    echo "sbgp $*: uncaught exception (exit 125)"; cat "$cli_dir/out"; exit 1
  fi
  grep -q -e "'$flag'" "$cli_dir/out" || {
    echo "sbgp $*: error does not name $flag"; cat "$cli_dir/out"; exit 1; }
}
expect_flag_error -n gen -n 3 -o "$cli_dir/g.txt"
expect_flag_error --size run --size=0 baseline
expect_flag_error -n check -n 0
expect_flag_error --scale run --scale 0 baseline
expect_flag_error --scale run --scale nan baseline
expect_flag_error --scale run --scale=-1 baseline
# Likewise an unreadable or malformed --graph file: a missing path, a
# text file that is not a relationship list, and a snapshot magic
# followed by garbage.
printf 'garbage\n' > "$cli_dir/garbage.txt"
{ printf 'SBGPSNAP'; head -c 4096 /dev/urandom; } > "$cli_dir/garbage.snap"
expect_flag_error --graph info --graph "$cli_dir/missing.txt"
expect_flag_error --graph info --graph "$cli_dir/garbage.txt"
expect_flag_error --graph info --graph "$cli_dir/garbage.snap"
rm -rf "$cli_dir"

echo "ci: all green"
